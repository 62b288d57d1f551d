"""Tests for the blocked distance kernels.

The kernels must agree exactly with the plain NumPy reference in
``smoothdiff._kernels._reference``: identical neighbor index lists,
(distance, index) tie order included, and bit-identical Chamfer values.
"""

import numpy as np
import pytest

from smoothdiff import backend_name
from smoothdiff._kernels import _block_rows, _reference, _sqdist_rows, chamfer, knn_neighbors

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
    # desk and paper scale: several row blocks, the last one partial
    for n in (197, 2043):
        _check_kernels_against_reference(rng, n)


def _check_kernels_against_reference(rng, n):
    rows = _block_rows(n)
    assert n // rows >= 3 and n % rows
    # a grid of spacing 1/16 keeps every squared distance exact, so equal
    # distances are real ties
    side = np.arange(64) / 16.0
    grid = np.stack(np.meshgrid(side, side, [0.25], indexing="ij"), axis=-1).reshape(-1, 3)[:n]
    cases = [
        ("plane_grid", grid),
        ("coarse_lattice", np.round(4.0 * rng.standard_normal((n, 3))) / 4.0),
        ("duplicated", np.repeat(rng.standard_normal((n // 4 + 1, 3)), 4, axis=0)[:n]),
        ("normal", rng.standard_normal((n, 3))),
        ("normal_small", rng.standard_normal((35, 3))),  # inside one block
    ]
    for name, pts in cases:
        for k in (1, 30, len(pts) - 1):
            got = knn_neighbors(pts, k)
            assert got.dtype == np.int64, name
            assert np.array_equal(got, _reference.knn_neighbors(pts, k)), (name, k)
    for (name_p, p), (name_q, q) in zip(cases, cases[1:] + cases[:1]):
        # every squared distance rounds as in the reference, not only the minima
        assert np.array_equal(_sqdist_rows(p, q.T.copy()), _reference._sqdist_matrix(p, q))
        assert chamfer(p, q) == _reference.chamfer(p, q), (name_p, name_q)
        assert chamfer(q, p) == _reference.chamfer(q, p), (name_q, name_p)
