"""Binary checkpoint round trips and malformed-file rejection."""

import struct

import numpy as np
import pytest

from smoothdiff import (
    DataError,
    DiffusionSchedule,
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
    save_checkpoint(path, bundle, schedule, trained_epochs=42, extra={"note": "hi"})

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
    assert header["note"] == "hi"

    # the reconstructed nets evaluate identically
    rng = np.random.default_rng(0)
    xt = rng.standard_normal((5, 3))
    z = rng.standard_normal(6)
    assert np.array_equal(
        loaded.decoder.evaluate(xt, z, 0.5), bundle.decoder.evaluate(xt, z, 0.5)
    )


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
