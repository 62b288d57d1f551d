"""Binary checkpoint format for the model trio.

Layout (all integers little-endian):

    magic   4 bytes  b"SDPC"
    version u32      currently 1
    npairs  u32      header entry count
    npairs * (u32 key length, key bytes, u32 value length, value bytes)
    3 parameter blocks, in order encoder / decoder / latent:
        u64 count, then count float64 values

Header entries are utf-8 strings and fully determine the architecture and
diffusion schedule, so loading never needs side information. Unknown header
keys are preserved and returned, which leaves room for additions without a
version bump.
"""

import struct

import numpy as np

from .errors import DataError
from .pointio import _atomic_open
from .score_models import LatentScoreNet, MlpScoreNet, PointEncoder, ModelBundle
from .sde import DiffusionSchedule

MAGIC = b"SDPC"
VERSION = 1

_INT_KEYS = (
    "latent_dim",
    "encoder_width",
    "decoder_width",
    "decoder_blocks",
    "temb_dim",
    "latent_width",
    "latent_blocks",
    "trained_epochs",
)
_FLOAT_KEYS = ("beta_min", "beta_max")


def save_checkpoint(path, bundle, schedule, trained_epochs=0, extra=None):
    """Write the bundle, schedule, and epoch counter to path, atomically."""
    header = {
        "latent_dim": str(bundle.latent_dim),
        "encoder_width": str(bundle.encoder.feature_width),
        "decoder_width": str(bundle.decoder.width),
        "decoder_blocks": str(bundle.decoder.n_blocks),
        "temb_dim": str(bundle.decoder.temb_dim),
        "latent_width": str(bundle.latent.width),
        "latent_blocks": str(bundle.latent.n_blocks),
        "beta_min": repr(schedule.beta_min),
        "beta_max": repr(schedule.beta_max),
        "trained_epochs": str(int(trained_epochs)),
    }
    if extra:
        for key, value in extra.items():
            header[str(key)] = str(value)

    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(header))]
    for key, value in header.items():
        kb, vb = key.encode("utf-8"), value.encode("utf-8")
        chunks.append(struct.pack("<I", len(kb)) + kb)
        chunks.append(struct.pack("<I", len(vb)) + vb)
    for params in (bundle.encoder.params, bundle.decoder.params, bundle.latent.params):
        arr = np.ascontiguousarray(params, dtype="<f8")
        chunks.append(struct.pack("<Q", arr.size))
        chunks.append(arr.tobytes())
    with _atomic_open(path, "wb") as fh:
        fh.write(b"".join(chunks))


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

    The returned header has typed values for the known keys (architecture
    ints, schedule floats, trained_epochs) and strings for anything else.
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

    for key in _INT_KEYS:
        if key not in header:
            raise DataError(f"{path}: missing header entry {key!r}")
        try:
            header[key] = int(header[key])
        except ValueError as exc:
            raise DataError(f"{path}: header entry {key!r} is not an integer") from exc
    for key in _FLOAT_KEYS:
        if key not in header:
            raise DataError(f"{path}: missing header entry {key!r}")
        try:
            header[key] = float(header[key])
        except ValueError as exc:
            raise DataError(f"{path}: header entry {key!r} is not a number") from exc

    blocks = []
    for _ in range(3):
        count = reader.u64()
        raw = reader.take(8 * count)
        # A read-only view of the file's bytes; each net copies it once.
        blocks.append(np.frombuffer(raw, dtype="<f8"))
    if reader.off != len(reader.blob):
        raise DataError(f"{path}: trailing bytes after parameter blocks")

    try:
        encoder = PointEncoder(
            header["latent_dim"],
            feature_width=header["encoder_width"],
            params=blocks[0],
        )
        decoder = MlpScoreNet(
            header["latent_dim"],
            width=header["decoder_width"],
            n_blocks=header["decoder_blocks"],
            temb_dim=header["temb_dim"],
            params=blocks[1],
        )
        latent = LatentScoreNet(
            header["latent_dim"],
            width=header["latent_width"],
            n_blocks=header["latent_blocks"],
            temb_dim=header["temb_dim"],
            params=blocks[2],
        )
    except Exception as exc:
        raise DataError(f"{path}: parameter blocks do not fit the header: {exc}") from exc
    bundle = ModelBundle(encoder=encoder, decoder=decoder, latent=latent)
    schedule = DiffusionSchedule(
        beta_min=header["beta_min"], beta_max=header["beta_max"]
    )
    return bundle, schedule, header
