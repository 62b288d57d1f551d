"""Tests for the blocked distance kernels.

The kernels must agree exactly with the plain NumPy reference in
``smoothdiff._kernels._reference``: identical neighbor index lists,
(distance, index) tie order included, and bit-identical Chamfer values.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothdiff._kernels as kernels
from smoothdiff import backend_name
from smoothdiff._kernels import (
    _CHAMFER_MOST_ROWS,
    _KNN_MOST_ROWS,
    _block_rows,
    _chamfer_screen,
    _reference,
    _screen,
    _sqdist_rows,
    chamfer,
    knn_neighbors,
)
from smoothdiff.geometry import ShapeSpec, generate_shape

from conftest import brute_force_knn


def test_active_backend_reported():
    assert backend_name() == "python"


def test_knn_matches_brute_force(rng):
    pts = rng.standard_normal((40, 3))
    for k in (1, 3, 7, 15):
        got = knn_neighbors(pts, k)
        expected = brute_force_knn(pts, k)
        assert got.shape == (40, k)
        assert got.dtype == np.int64
        for i in range(40):
            assert list(got[i]) == expected[i]


def test_knn_tie_broken_by_index():
    # four corners of a square: both non-adjacent corners are equidistant,
    # so the 2-NN list must prefer the lower index among ties
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    nbrs = knn_neighbors(pts, 3)
    # point 0: neighbors 1 and 2 at d^2=1 (tie -> 1 first), then 3
    assert list(nbrs[0]) == [1, 2, 3]
    # point 3: neighbors 1 and 2 at d^2=1, then 0
    assert list(nbrs[3]) == [1, 2, 0]


def test_knn_duplicate_points():
    pts = np.zeros((5, 3))
    nbrs = knn_neighbors(pts, 2)
    assert list(nbrs[0]) == [1, 2]
    assert list(nbrs[4]) == [0, 1]


def test_chamfer_hand_value():
    p = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    q = np.array([[0.0, 1.0, 0.0]])
    # p->q: (1 + 2)/2 ; q->p: 1            => 2.5
    assert chamfer(p, q) == pytest.approx(2.5, abs=0.0)


def test_chamfer_identity_and_symmetry(rng):
    p = rng.standard_normal((17, 3))
    q = rng.standard_normal((23, 3))
    assert chamfer(p, p) == 0.0
    assert chamfer(p, q) == pytest.approx(chamfer(q, p), rel=1e-15)


def test_kernels_match_reference_exactly(rng):
    # desk and paper scale: at 2043 points each kernel spans many row blocks
    # and a partial one, at 197 one or two blocks
    for n in (197, 2043):
        _check_kernels_against_reference(rng, n)
    for most, itemsize in ((_KNN_MOST_ROWS, 8), (_CHAMFER_MOST_ROWS, 4)):
        rows = _block_rows(2043, most, itemsize)
        assert 2043 // rows >= 3 and 2043 % rows


def _clouds(rng, n):
    """(name, points) cases for the kernels: exact ties, duplicates, and
    clouds that stretch the k-NN screen's rounding bound."""
    # a grid of spacing 1/16 keeps every squared distance exact, so equal
    # distances are real ties
    side = np.arange(64) / 16.0
    grid = np.stack(np.meshgrid(side, side, [0.25], indexing="ij"), axis=-1).reshape(-1, 3)[:n]
    normal = rng.standard_normal((n, 3))
    half = rng.standard_normal((n // 2 + 1, 3))
    outlier = rng.standard_normal((n, 3))
    outlier[n // 3] = [4e5, -3e5, 2e5]
    return [
        ("plane_grid", grid),
        ("coarse_lattice", np.round(4.0 * rng.standard_normal((n, 3))) / 4.0),
        ("duplicated", np.repeat(rng.standard_normal((n // 4 + 1, 3)), 4, axis=0)[:n]),
        ("normal", normal),
        ("normal_small", rng.standard_normal((35, 3))),  # inside one block
        ("offset_1e3", normal + 1e3),
        ("offset_1e6", normal + np.array([1e6, -1e6, 5e5])),
        ("pairs_1e-9", np.concatenate([half, half + 1e-9 * rng.standard_normal(half.shape)])[:n]),
        ("scaled_1e-6", 1e-6 * normal),
        ("scaled_1e4", 1e4 * normal),
        ("far_outlier", outlier),
    ]


def _check_kernels_against_reference(rng, n):
    cases = _clouds(rng, n)
    for name, pts in cases:
        # the reference's lists at k are the first k of its lists at N-1
        full = _reference.knn_neighbors(pts, len(pts) - 1)
        for k in (1, 30, len(pts) - 1):
            got = knn_neighbors(pts, k)
            assert got.dtype == np.int64, name
            assert np.array_equal(got, full[:, :k]), (name, k)
    for (name_p, p), (name_q, q) in zip(cases, cases[1:] + cases[:1]):
        # every squared distance rounds as in the reference, not only the minima
        assert np.array_equal(_sqdist_rows(p, q.T.copy()), _reference._sqdist_matrix(p, q))
        assert chamfer(p, q) == _reference.chamfer(p, q), (name_p, name_q)
        assert chamfer(q, p) == _reference.chamfer(q, p), (name_q, name_p)


@pytest.mark.parametrize("n", [197, 600])
def test_screen_bound_covers_reference_rounding(rng, n):
    # the screened value plus the row constant |P_i|^2 is within e_i of the
    # reference's squared distance, entry by entry
    for name, pts in _clouds(rng, n):
        lhs, rhs, err = _screen(pts)
        screened = lhs @ rhs + rhs[3][:, None]
        miss = np.abs(screened - _reference._sqdist_matrix(pts, pts))
        assert np.all(miss <= err[:, None]), (name, float(np.max(miss / err[:, None])))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 300),
    k_frac=st.floats(0.0, 1.0),
    offset=st.sampled_from([0.0, 1.0, -37.5, 1e3, 1e6]),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e4]),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_knn_matches_reference_property(n, k_frac, offset, scale, lattice, seed):
    gen = np.random.default_rng(seed)
    pts = gen.standard_normal((n, 3))
    if lattice:  # coarse coordinates: exact ties and duplicates
        pts = np.round(2.0 * pts) / 2.0
    pts = scale * pts + offset * gen.standard_normal(3)
    k = 1 + int(k_frac * (n - 2))
    assert np.array_equal(knn_neighbors(pts, k), _reference.knn_neighbors(pts, k))


def _screen_miss(p, q):
    """Entry-by-entry error of Chamfer's p-to-q screen against the
    reference's squared distances, and the bound c_i + c_j, both scaled."""
    n = len(p)
    lhs, rhs, c, exp = _chamfer_screen(p, q)
    x = lhs[:, :3].astype(np.float64)
    row_const = np.einsum("ij,ij->i", x, x)[:n]
    screened = (lhs[:n] @ rhs[:, n:]).astype(np.float64) + c[n:] + row_const[:, None]
    ref = np.ldexp(_reference._sqdist_matrix(p, q), -2 * exp)
    return np.abs(screened - ref), c[:n, None] + c[n:]


@pytest.mark.parametrize("n", [197, 600])
def test_chamfer_screen_bound_covers_reference_rounding(rng, n):
    # the float32 screened value plus the row constant |x_i|^2 (and the
    # column shift c_j put back) is within c_i + c_j of the reference's
    # squared distance in the scaled frame, entry by entry
    cases = _clouds(rng, n)
    for (name_p, p), (name_q, q) in itertools.product(cases, repeat=2):
        for scale in (1.0, 2.0**100, 2.0**-100):
            miss, bound = _screen_miss(scale * p, scale * q)
            assert np.all(miss <= bound), (name_p, name_q, scale, float(np.max(miss / bound)))


@settings(max_examples=60, deadline=None)
@given(
    n_p=st.integers(1, 300),
    n_q=st.integers(1, 300),
    offset_p=st.sampled_from([0.0, 1.0, -37.5, 1e3, 1e6]),
    offset_q=st.sampled_from([0.0, 1.0, -37.5, 1e3, 1e6]),
    scale_p=st.sampled_from([1e-6, 1e-3, 1.0, 1e4]),
    scale_q=st.sampled_from([1e-6, 1e-3, 1.0, 1e4]),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chamfer_matches_reference_property(n_p, n_q, offset_p, offset_q, scale_p, scale_q,
                                            lattice, seed):
    gen = np.random.default_rng(seed)
    clouds = []
    for n, offset, scale in ((n_p, offset_p, scale_p), (n_q, offset_q, scale_q)):
        pts = gen.standard_normal((n, 3))
        if lattice:  # coarse coordinates: exact ties and duplicates
            pts = np.round(2.0 * pts) / 2.0
        clouds.append(scale * pts + offset * gen.standard_normal(3))
    p, q = clouds
    assert chamfer(p, q) == _reference.chamfer(p, q)
    assert chamfer(q, p) == _reference.chamfer(q, p)


def test_chamfer_exact_where_the_screen_misorders():
    # q's two points mirror each other through p[0], and the second is
    # nudged nearer by 2^-40 along x: its squared distance is smaller by
    # about 1.75 * 2^-40, far below what float32 resolves, and the screen's
    # argmin picks the first
    p = np.array([[0.25, 0.5, 0.125], [0.5, -0.5, 0.5]])
    q = np.array([[1.125, 1.125, -0.875], [-0.625 + 2.0**-40, -0.125, 1.125]])
    d = _reference._sqdist_matrix(p, q)
    assert 0.0 < d[0, 0] - d[0, 1] < 1e-9 * d[0, 0]
    lhs, rhs, _, _ = _chamfer_screen(p, q)
    assert np.argmin(lhs[:1] @ rhs[:, 2:]) == 0
    assert chamfer(p, q) == _reference.chamfer(p, q)
    assert chamfer(q, p) == _reference.chamfer(q, p)


def _torus(n, seed):
    return generate_shape(ShapeSpec("torus", n, noise_std=0.01, rng_seed=seed)).points


@pytest.mark.parametrize("name, most", [("two tori", 0.005), ("torus vs noise x100", 0.04)])
def test_chamfer_screen_rechecks_few_rows(monkeypatch, name, most):
    # guards the screen's bound against loosening into an O(N^2) recheck:
    # at _CHAMFER_C = 16 these cases recheck 0.12% and 1.6% of their rows
    p = _torus(2048, 1)
    q = _torus(2048, 2) if name == "two tori" else 100.0 * np.random.default_rng(3).standard_normal((2048, 3))
    calls = []
    pairs = kernels._sqdist_pairs
    monkeypatch.setattr(kernels, "_sqdist_pairs", lambda a, b: calls.append(a) or pairs(a, b))
    assert chamfer(p, q) == _reference.chamfer(p, q)
    # a block's own rows are a slice of p or q; rechecked pairs are gathered
    rechecks = [a for a in calls if not (np.shares_memory(a, p) or np.shares_memory(a, q))]
    rows = sum(len(np.unique(a, axis=0)) for a in rechecks)
    assert sum(len(a) for a in calls) - sum(len(a) for a in rechecks) == 4096
    assert rows <= most * 4096, rows
    assert sum(len(a) for a in rechecks) <= 2 * most * 4096
