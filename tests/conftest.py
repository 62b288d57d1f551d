"""Shared fixtures and small numeric helpers for the test suite."""

import numpy as np
import pytest

from smoothdiff import ModelConfig, build_models


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_model_config():
    # small enough that finite differences and training loops stay fast
    return ModelConfig(
        latent_dim=6,
        decoder_width=16,
        decoder_blocks=2,
        temb_dim=8,
        encoder_width=16,
        latent_width=16,
        latent_blocks=2,
    )


@pytest.fixture
def tiny_bundle(tiny_model_config):
    bundle = build_models(tiny_model_config, seed=99)
    # zero-initialised output layers make gradient checks vacuous, so
    # randomise every parameter vector before differentiating
    gen = np.random.default_rng(4321)
    for net in (bundle.encoder, bundle.decoder, bundle.latent):
        net.params[:] = 0.1 * gen.standard_normal(net.params.size)
    return bundle


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def brute_force_knn(points, k):
    """Reference nearest-neighbour lists: full distance matrix with
    (distance, index) lexicographic tie-breaking."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    diffs = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    out = []
    for i in range(n):
        order = sorted((d2[i, j], j) for j in range(n) if j != i)
        out.append([j for _, j in order[:k]])
    return out


class TornFile:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def tear_writes(monkeypatch):
    """Make every file the atomic writer opens fail halfway with ENOSPC."""
    import smoothdiff.pointio as pointio

    def torn_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(pointio, "open", torn_open, raising=False)


class FixedRng:
    """Generator stub: fixed uniform value, queued standard_normal draws."""

    def __init__(self, t_value, normals):
        self.t_value = float(t_value)
        self.normals = [np.asarray(a, dtype=float) for a in normals]
        self._i = 0

    def uniform(self, low, high):
        assert low <= self.t_value <= high
        return self.t_value

    def standard_normal(self, shape):
        out = self.normals[self._i]
        self._i += 1
        assert out.shape == tuple(np.atleast_1d(shape)) or out.shape == shape
        return out.copy()
