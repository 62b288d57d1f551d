"""Binary checkpoint format for the model trio.

Layout (all integers little-endian):

    magic   4 bytes  b"SDPC"
    version u32      currently 1
    npairs  u32      header entry count
    npairs * (u32 key length, key bytes, u32 value length, value bytes)
    3 parameter blocks, in order encoder / decoder / latent:
        u64 count, then count float64 values

Header entries are utf-8 strings. The writer's keys are the ModelConfig
fields in declaration order, then the DiffusionSchedule fields beta_min and
beta_max, then trained_epochs; reordering ModelConfig's fields therefore
changes the file. They fully determine the architecture and diffusion
schedule, so loading never needs side information. Unknown header keys are
preserved and returned, which leaves room for additions without a version
bump.
"""

import struct
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError, InvalidParameterError
from .pointio import _atomic_open
from .score_models import ModelConfig, build_models
from .sde import DiffusionSchedule

MAGIC = b"SDPC"
VERSION = 1

# (key, type) of every header entry the writer emits, in its order.
_TYPED_KEYS = [(f.name, f.type) for cls in (ModelConfig, DiffusionSchedule)
               for f in fields(cls)] + [("trained_epochs", int)]


def save_checkpoint(path, bundle, schedule, trained_epochs=0):
    """Write the bundle, schedule, and epoch counter to path, atomically.

    Each parameter block is written straight from its array, so saving holds
    no copy of the parameters.
    """
    header = {**asdict(bundle.config), **asdict(schedule),
              "trained_epochs": int(trained_epochs)}
    with _atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(header)))
        for key, value in header.items():
            for text in (key, str(value)):
                raw = text.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)) + raw)
        for params in (bundle.encoder.params, bundle.decoder.params, bundle.latent.params):
            arr = np.ascontiguousarray(params, dtype="<f8")
            fh.write(struct.pack("<Q", arr.size))
            fh.write(arr)


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n):
        if self.off + n > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def string(self):
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: bad header string: {exc}") from exc


def load_checkpoint(path):
    """Read a checkpoint; returns (bundle, schedule, header dict).

    The returned header has typed values for the keys the writer emits
    (architecture ints, schedule floats, trained_epochs) and strings for
    anything else.
    """
    try:
        with open(path, "rb") as fh:
            # A memoryview, so taking a parameter block copies nothing.
            reader = _Reader(memoryview(fh.read()), path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if reader.take(4) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    header = {}
    for _ in range(reader.u32()):
        key = reader.string()
        header[key] = reader.string()

    for key, kind in _TYPED_KEYS:
        if key not in header:
            raise DataError(f"{path}: missing header entry {key!r}")
        try:
            header[key] = kind(header[key])
        except ValueError as exc:
            raise DataError(f"{path}: header entry {key!r} is not a valid {kind.__name__}") from exc

    blocks = []
    for _ in range(3):
        count = reader.u64()
        raw = reader.take(8 * count)
        # A read-only view of the file's bytes; each net copies it once.
        blocks.append(np.frombuffer(raw, dtype="<f8"))
    if reader.off != len(reader.blob):
        raise DataError(f"{path}: trailing bytes after parameter blocks")

    def read(cls):
        return cls(**{f.name: header[f.name] for f in fields(cls)})

    try:
        schedule = read(DiffusionSchedule)
    except InvalidParameterError as exc:
        raise DataError(f"{path}: bad diffusion schedule: {exc}") from exc
    try:
        bundle = build_models(read(ModelConfig), params=blocks)
    except Exception as exc:
        raise DataError(f"{path}: parameter blocks do not fit the header: {exc}") from exc
    return bundle, schedule, header
