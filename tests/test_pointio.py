"""xyz-ascii point cloud files: exact round trips and error reporting."""

import numpy as np
import pytest

from smoothdiff import DataError, InvalidInputError
from smoothdiff.pointio import _fmt, read_cloud_dir, read_xyz, write_xyz


def test_round_trip_is_bitwise(rng, tmp_path):
    pts = rng.standard_normal((50, 3)) * np.array([1e-8, 1.0, 1e6])
    path = tmp_path / "c.xyz"
    write_xyz(path, pts)
    back = read_xyz(path)
    assert np.array_equal(back.points, pts)


def test_writer_emits_plain_decimal(tmp_path):
    path = tmp_path / "c.xyz"
    write_xyz(path, np.array([[1e-7, -2.5, 3.0]]))
    text = path.read_text()
    assert "e" not in text and "E" not in text
    assert text == "0.0000001 -2.5 3.0\n"


def test_writer_lines_are_the_positional_format(rng, tmp_path):
    # the writer takes repr's digits where repr writes no exponent, and
    # _fmt's elsewhere: every line is the one _fmt alone writes
    edges = [0.0, -0.0, 1e-4, 1e-5, -1e-5, 9.999999999999999e-5, 1e15,
             9999999999999998.0, 9.999999999999999e15, 1e16, -1e16, 1e300,
             5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values = np.concatenate([edges, rng.standard_normal(3000),
                             rng.standard_normal(600) * 10.0 ** rng.integers(-30, 30, 600)])
    pts = values[: len(values) // 3 * 3].reshape(-1, 3)
    path = tmp_path / "c.xyz"
    write_xyz(path, pts)
    lines = path.read_text().splitlines()
    assert lines == [f"{_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in pts]
    assert np.array_equal(read_xyz(path).points, pts)


def test_reader_accepts_scientific_and_crlf(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_bytes(b"1e-3 2.5E2 -4e+1\r\n0 0 1\r\n")
    cloud = read_xyz(path)
    assert np.array_equal(cloud.points, [[1e-3, 250.0, -40.0], [0.0, 0.0, 1.0]])


def test_reader_errors_name_file_and_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(DataError, match=r"bad\.xyz:2"):
        read_xyz(path)
    path.write_text("0 0 zero\n")
    with pytest.raises(DataError, match=r"bad\.xyz:1: non-numeric"):
        read_xyz(path)


def test_reader_rejects_empty_and_nonfinite(tmp_path):
    path = tmp_path / "e.xyz"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="no points"):
        read_xyz(path)
    path.write_text("0 0 nan\n")
    with pytest.raises(DataError, match="invalid point data"):
        read_xyz(path)


@pytest.mark.parametrize("bad", [
    [[np.nan, 0.0, 0.0], [1.0, 2.0, 3.0]],
    [[0.0, np.inf, 0.0]],
    [[0.0, 1.0], [2.0, 3.0]],
    np.zeros((0, 3)),
])
def test_writer_rejects_what_the_reader_would(bad, tmp_path):
    # non-finite or non-(N, 3) points are refused before the temp file is
    # opened, so the earlier file survives and no .tmp is left
    path = tmp_path / "c.xyz"
    write_xyz(path, [[1.0, 2.0, 3.0]])
    before = path.read_bytes()
    with pytest.raises(InvalidInputError):
        write_xyz(path, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.xyz"]


def test_read_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_xyz(tmp_path / "absent.xyz")


def test_read_cloud_dir_sorted(rng, tmp_path):
    clouds = [rng.standard_normal((4, 3)) for _ in range(3)]
    # write out of order; names sort back
    for name, c in zip(("b.xyz", "a.xyz", "c.xyz"), clouds):
        write_xyz(tmp_path / name, c)
    (tmp_path / "ignore.txt").write_text("not a cloud")
    loaded = read_cloud_dir(tmp_path)
    assert len(loaded) == 3
    assert np.array_equal(loaded[0].points, clouds[1])
    assert np.array_equal(loaded[1].points, clouds[0])
    assert np.array_equal(loaded[2].points, clouds[2])


def test_read_cloud_dir_empty(tmp_path):
    with pytest.raises(DataError, match="no .xyz files"):
        read_cloud_dir(tmp_path)
