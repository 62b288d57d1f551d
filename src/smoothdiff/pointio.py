"""Reading and writing point clouds in the xyz-ascii format, and the atomic writer.

One point per line: three decimal floats separated by single spaces, "\n"
line endings, no header. The reader additionally accepts scientific notation
and CRLF line endings.

Every file the package writes (clouds, checkpoints, manifests, loss tables,
metrics, sweeps and trajectories) goes through _atomic_open, so a failed or
interrupted write never leaves a half-written file in place of the old one.
"""

import contextlib
import os

import numpy as np

from .errors import DataError
from .geometry import PointCloud, _as_points


@contextlib.contextmanager
def _atomic_open(path, mode="w"):
    """Open a sibling temp file for path's new contents and rename it over path.

    The rename happens only when the with block finishes; on any failure the
    temp file is removed and a previous file at path stays as it was. An
    OSError is raised again with its errno and path's name. Text files are
    opened with newline="", so the writer picks the line endings.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _fmt(value):
    # Shortest decimal digits that parse back to the exact same float64.
    return np.format_float_positional(float(value), unique=True, trim="0")


def write_xyz(path, cloud):
    """Write a cloud as xyz-ascii. Coordinates round-trip exactly."""
    pts = _as_points(cloud)
    with _atomic_open(path) as fh:
        for x, y, z in pts:
            fh.write(f"{_fmt(x)} {_fmt(y)} {_fmt(z)}\n")


def read_xyz(path):
    """Read an xyz-ascii file into a PointCloud.

    Raises DataError naming the file and line on any malformed content.
    """
    points = []
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.rstrip("\r\n")
        if not stripped.strip():
            continue
        fields = stripped.split(" ")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 space-separated values")
        try:
            points.append([float(f) for f in fields])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric coordinate") from exc
    if not points:
        raise DataError(f"{path}: no points found")
    try:
        return PointCloud(np.array(points))
    except Exception as exc:
        raise DataError(f"{path}: invalid point data: {exc}") from exc


def read_cloud_dir(directory):
    """Read every .xyz file in a directory, sorted by filename."""
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".xyz"))
    except OSError as exc:
        raise DataError(f"cannot list {directory}: {exc}") from exc
    if not names:
        raise DataError(f"no .xyz files in {directory}")
    return [read_xyz(os.path.join(directory, n)) for n in names]
