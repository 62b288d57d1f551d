"""Binary checkpoint round trips and malformed-file rejection."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from smoothdiff import (
    DataError,
    DiffusionSchedule,
    ModelConfig,
    build_models,
    load_checkpoint,
    save_checkpoint,
)

from conftest import tear_writes


@pytest.fixture
def bundle(tiny_model_config):
    b = build_models(tiny_model_config, seed=17)
    gen = np.random.default_rng(3)
    for net in (b.encoder, b.decoder, b.latent):
        net.params[:] = gen.standard_normal(net.params.size)
    return b


def test_round_trip_bitwise(bundle, tmp_path):
    schedule = DiffusionSchedule(beta_min=0.2, beta_max=15.0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, bundle, schedule, trained_epochs=42)

    loaded, sched, header = load_checkpoint(path)
    assert np.array_equal(loaded.encoder.params, bundle.encoder.params)
    assert np.array_equal(loaded.decoder.params, bundle.decoder.params)
    assert np.array_equal(loaded.latent.params, bundle.latent.params)
    for net in (loaded.encoder, loaded.decoder, loaded.latent):
        # each net owns a writable copy, not a view of the file's bytes
        assert net.params.flags.writeable and net.params.flags.owndata
        assert net.params.dtype == np.float64
    assert sched.beta_min == 0.2 and sched.beta_max == 15.0
    assert header["trained_epochs"] == 42
    assert header["latent_dim"] == 6
    assert loaded.config == bundle.config

    # the reconstructed nets evaluate identically
    rng = np.random.default_rng(0)
    xt = rng.standard_normal((5, 3))
    z = rng.standard_normal(6)
    assert np.array_equal(
        loaded.decoder.evaluate(xt, z, 0.5), bundle.decoder.evaluate(xt, z, 0.5)
    )


def _read_entries(blob):
    """(header entries in file order, offset after them), read with struct alone."""
    assert blob[:4] == b"SDPC"
    version, npairs = struct.unpack_from("<II", blob, 4)
    assert version == 1
    off, entries = 12, []
    for _ in range(npairs):
        pair = []
        for _ in range(2):
            (n,) = struct.unpack_from("<I", blob, off)
            pair.append(blob[off + 4 : off + 4 + n].decode("utf-8"))
            off += 4 + n
        entries.append(tuple(pair))
    return entries, off


def test_format_pinned(tiny_model_config, tmp_path):
    # a fixed bundle with exactly representable parameters, read back
    # without load_checkpoint
    bundle = build_models(tiny_model_config)
    nets = (bundle.encoder, bundle.decoder, bundle.latent)
    for i, net in enumerate(nets):
        net.params[:] = (np.arange(net.params.size) % 97 - 48 + i) / 64.0
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule(beta_min=0.2, beta_max=15.0),
                    trained_epochs=42)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "3c0090f2b585100114932b7082b001d50fc116ccad6d0fd5317794682cae549c"
    )

    entries, header_end = _read_entries(blob)
    assert entries == [
        ("latent_dim", "6"), ("encoder_width", "16"), ("decoder_width", "16"),
        ("decoder_blocks", "2"), ("temb_dim", "8"), ("latent_width", "16"),
        ("latent_blocks", "2"), ("beta_min", "0.2"), ("beta_max", "15.0"),
        ("trained_epochs", "42"),
    ]
    off = header_end
    for net in nets:
        (count,) = struct.unpack_from("<Q", blob, off)
        assert count == net.params.size
        block = np.frombuffer(blob, dtype="<f8", count=count, offset=off + 8)
        assert np.array_equal(block, net.params)
        off += 8 + 8 * count
    assert off == len(blob)

    # an unknown entry, added after the known ones, is kept as a string
    note = b"".join(struct.pack("<I", len(text)) + text for text in (b"note", b"hi"))
    injected = (blob[:8] + struct.pack("<I", len(entries) + 1) + blob[12:header_end]
                + note + blob[header_end:])
    path.write_bytes(injected)
    loaded, _, header = load_checkpoint(path)
    assert header["note"] == "hi"
    assert header["trained_epochs"] == 42
    for net, want in zip((loaded.encoder, loaded.decoder, loaded.latent), nets):
        assert np.array_equal(net.params, want.params)


def test_save_holds_no_parameter_copy(tmp_path):
    bundle = build_models(ModelConfig(), seed=0)
    smallest = min(net.params.nbytes for net in (bundle.encoder, bundle.decoder, bundle.latent))
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "m.ckpt", bundle, DiffusionSchedule())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < smallest


def test_header_values_typed(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule(), trained_epochs=7)
    _, _, header = load_checkpoint(path)
    for key in ("latent_dim", "decoder_width", "trained_epochs"):
        assert isinstance(header[key], int)
    assert isinstance(header["beta_min"], float)


def test_rejects_bad_magic(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"ZZZZ"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_rejects_wrong_version(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_rejects_truncation(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_rejects_trailing_garbage(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def test_rejects_non_numeric_header(bundle, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    blob = path.read_bytes()
    # "latent_dim" value is a short decimal string; corrupt it in place
    key = b"latent_dim"
    at = blob.index(key) + len(key)
    vlen = struct.unpack("<I", blob[at : at + 4])[0]
    corrupted = blob[: at + 4] + b"x" * vlen + blob[at + 4 + vlen :]
    path.write_bytes(corrupted)
    with pytest.raises(DataError, match="latent_dim"):
        load_checkpoint(path)


def test_rejects_param_size_mismatch(bundle, tmp_path, tiny_model_config):
    from dataclasses import replace

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule())
    # header that claims a wider decoder than the stored parameter block
    blob = bytearray(path.read_bytes())
    key = b"decoder_width"
    at = blob.index(key) + len(key)
    vlen = struct.unpack("<I", bytes(blob[at : at + 4]))[0]
    assert vlen == 2  # "16"
    blob[at + 4 : at + 4 + vlen] = b"32"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="do not fit"):
        load_checkpoint(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_failed_save_keeps_previous_checkpoint(bundle, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, bundle, DiffusionSchedule(), trained_epochs=3)
    before = path.read_bytes()

    with monkeypatch.context() as m:
        tear_writes(m)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, bundle, DiffusionSchedule(), trained_epochs=9)

    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    assert path.read_bytes() == before
    _, _, header = load_checkpoint(path)
    assert header["trained_epochs"] == 3
