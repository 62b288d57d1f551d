"""Tests for the blocked distance kernels.

The kernels must agree exactly with the plain NumPy reference in
``smoothdiff._kernels._reference``: identical neighbor index lists,
(distance, index) tie order included, and bit-identical Chamfer values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdiff import backend_name
from smoothdiff._kernels import (
    _KNN_MOST_ROWS,
    _block_rows,
    _reference,
    _screen,
    _sqdist_rows,
    chamfer,
    knn_neighbors,
)

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
    # desk and paper scale: at 2043 points the k-NN spans many row blocks
    # and a partial one, at 197 one full block and a partial one
    for n in (197, 2043):
        _check_kernels_against_reference(rng, n)
    assert any(n // _block_rows(n, _KNN_MOST_ROWS) >= 3 and n % _block_rows(n, _KNN_MOST_ROWS)
               for n in (197, 2043))


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
    rows = _block_rows(n)
    assert n // rows >= 3 and n % rows
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
