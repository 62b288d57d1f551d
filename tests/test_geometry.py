"""Shapes, KNN graphs, Laplacian invariants, and the smoothness functional."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdiff import (
    InvalidInputError,
    InvalidParameterError,
    LaplacianMatrix,
    PointCloud,
    ShapeSpec,
    build_knn_graph,
    build_laplacian,
    generate_shape,
    smoothness,
    smoothness_gradient,
)
from smoothdiff.geometry import KnnGraph

from conftest import brute_force_knn, numeric_grad


# ---------------------------------------------------------------- shapes


def test_shape_generation_deterministic():
    spec = ShapeSpec(kind="torus", n_points=64, noise_std=0.02, rng_seed=11)
    a = generate_shape(spec).points
    b = generate_shape(spec).points
    assert np.array_equal(a, b)
    c = generate_shape(ShapeSpec(kind="torus", n_points=64, noise_std=0.02, rng_seed=12))
    assert not np.array_equal(a, c.points)


def test_sphere_exact_radius():
    cloud = generate_shape(ShapeSpec(kind="sphere", n_points=200, rng_seed=0))
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(r - 0.5)) < 1e-12


def test_torus_exact_surface_residual():
    spec = ShapeSpec(kind="torus", n_points=200, rng_seed=1)
    pts = generate_shape(spec).points
    ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    resid = np.sqrt((ring - spec.major_radius) ** 2 + pts[:, 2] ** 2)
    assert np.max(np.abs(resid - spec.minor_radius)) < 1e-12


def test_plane_grid_flat_and_bounded():
    pts = generate_shape(ShapeSpec(kind="plane_grid", n_points=49, rng_seed=0)).points
    assert np.all(pts[:, 2] == 0.0)
    assert pts[:, :2].min() >= -0.5 and pts[:, :2].max() <= 0.5


def test_helix_parametric_consistency():
    spec = ShapeSpec(kind="helix", n_points=100, rng_seed=0)
    pts = generate_shape(spec).points
    radii = np.linalg.norm(pts[:, :2], axis=1)
    assert np.max(np.abs(radii - spec.radius)) < 1e-12
    assert pts[:, 2].min() == pytest.approx(-0.5) and pts[:, 2].max() == pytest.approx(0.5)
    # z increases monotonically along the parameterization
    assert np.all(np.diff(pts[:, 2]) > 0)


@pytest.mark.parametrize("kind", ["sphere", "torus", "plane_grid", "helix"])
def test_default_bbox_diagonal_at_most_two(kind):
    pts = generate_shape(ShapeSpec(kind=kind, n_points=500, rng_seed=3)).points
    diag = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
    assert diag <= 2.0 + 1e-12


def test_shape_spec_validation():
    with pytest.raises(InvalidParameterError):
        ShapeSpec(kind="cube", n_points=10)
    with pytest.raises(InvalidParameterError):
        ShapeSpec(kind="sphere", n_points=0)
    with pytest.raises(InvalidParameterError):
        ShapeSpec(kind="sphere", n_points=10, noise_std=-0.1)


def test_point_cloud_validation():
    with pytest.raises(InvalidInputError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(InvalidInputError):
        PointCloud(np.array([[np.nan, 0.0, 0.0]]))


# ---------------------------------------------------------------- graphs


def test_knn_graph_matches_brute_force(rng):
    pts = rng.standard_normal((30, 3))
    graph = build_knn_graph(pts, 5)
    assert graph.k == 5 and graph.n_nodes == 30
    expected = brute_force_knn(pts, 5)
    for i in range(30):
        assert list(graph.neighbor_lists[i]) == expected[i]


def test_edge_set_is_symmetric_closure(rng):
    pts = rng.standard_normal((25, 3))
    graph = build_knn_graph(pts, 4)
    edges = {tuple(e) for e in graph.edge_set}
    # every row is (i < j), sorted, unique
    assert all(i < j for i, j in edges)
    assert len(edges) == graph.edge_set.shape[0]
    # union rule: directed edge in either orientation appears exactly once
    directed = set()
    for i, row in enumerate(graph.neighbor_lists):
        for j in row:
            directed.add((min(i, int(j)), max(i, int(j))))
    assert edges == directed


@pytest.mark.parametrize("kind", ["plane_grid", "random"])
def test_edge_set_matches_row_unique(kind, rng):
    # the 1-D key dedup must give exactly the sorted pairs of a row-wise unique
    if kind == "plane_grid":
        pts = generate_shape(ShapeSpec("plane_grid", 300)).points
    else:
        pts = rng.standard_normal((300, 3))
    graph = build_knn_graph(pts, 12)
    rows = np.repeat(np.arange(300), 12)
    cols = graph.neighbor_lists.reshape(-1)
    expected = np.unique(np.stack([np.minimum(rows, cols), np.maximum(rows, cols)], axis=1), axis=0)
    assert graph.edge_set.dtype == np.int64
    assert np.array_equal(graph.edge_set, expected)


def test_knn_graph_parameter_bounds(rng):
    pts = rng.standard_normal((10, 3))
    with pytest.raises(InvalidParameterError):
        build_knn_graph(pts, 0)
    with pytest.raises(InvalidParameterError):
        build_knn_graph(pts, 10)
    with pytest.raises(InvalidInputError):
        build_knn_graph(pts[:1], 1)


def test_knn_graph_copies_its_arrays():
    # the graph freezes its own copies; the caller's arrays stay writeable and unshared
    lists = np.array([[1], [0], [1]], dtype=np.int64)
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    graph = KnnGraph(k=1, n_nodes=3, neighbor_lists=lists, edge_set=edges)
    assert lists.flags.writeable and edges.flags.writeable
    assert not graph.neighbor_lists.flags.writeable and not graph.edge_set.flags.writeable
    lists[0, 0] = 2
    edges[0, 0] = 2
    assert graph.neighbor_lists[0, 0] == 1 and graph.edge_set[0, 0] == 0


# ------------------------------------------------------------- laplacian


def test_laplacian_invariants(rng):
    pts = rng.standard_normal((40, 3))
    graph = build_knn_graph(pts, 6)
    lap = build_laplacian(graph).matrix.toarray()
    # exactly symmetric (integer-valued entries, so equality is exact)
    assert np.array_equal(lap, lap.T)
    # rows sum to zero exactly
    assert np.all(lap.sum(axis=1) == 0.0)
    # positive semidefinite
    eigs = np.linalg.eigvalsh(lap)
    assert eigs.min() >= -1e-10
    # off-diagonal entries are 0 or -1; diagonal equals vertex degree
    off = lap - np.diag(np.diag(lap))
    assert set(np.unique(off)).issubset({0.0, -1.0})
    degrees = np.zeros(40)
    for i, j in graph.edge_set:
        degrees[i] += 1
        degrees[j] += 1
    assert np.array_equal(np.diag(lap), degrees)


def test_laplacian_two_points_hand_case():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    lap = build_laplacian(build_knn_graph(pts, 1)).matrix.toarray()
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert smoothness(pts, build_laplacian(build_knn_graph(pts, 1))) == 4.0


def test_constant_vector_in_nullspace(rng):
    pts = rng.standard_normal((20, 3))
    lap = build_laplacian(build_knn_graph(pts, 3)).matrix
    ones = np.ones(20)
    assert np.max(np.abs(lap @ ones)) == 0.0


def _dyadic_grid(n, offset):
    # spacing 1/16 and a dyadic offset: every sum below is exact in float64
    side = int(np.ceil(np.sqrt(n)))
    axis = (np.arange(side) - side // 2) / 16.0
    gx, gy = np.meshgrid(axis + offset[0], axis + offset[1], indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(side * side, offset[2])], axis=1)[:n]


def test_edge_path_matches_csr_form(rng):
    clouds = [
        (scale * rng.standard_normal((n, 3)) + shift, False)
        for n, scale, shift in [(40, 1.0, 0.0), (256, 0.3, 2.0), (2048, 5.0, -1.5)]
    ]
    # on the dyadic grid both summation orders are exact, so they agree exactly
    clouds.append((_dyadic_grid(256, (0.25, -0.125, 0.375)), True))
    for pts, exact in clouds:
        for k in (1, 8, 30):
            lap = build_laplacian(build_knn_graph(pts, k))
            lx2 = 2.0 * (lap.matrix @ pts)
            s_csr = float(np.sum(pts * (lap.matrix @ pts)))
            grad = smoothness_gradient(pts, lap)
            s_edges = smoothness(pts, lap)
            assert np.max(np.abs(grad - lx2)) <= 1e-14 * np.max(np.abs(lx2))
            assert s_edges == pytest.approx(s_csr, rel=1e-14, abs=0.0)
            if exact:
                assert np.array_equal(grad, lx2) and s_edges == s_csr


def test_laplacian_from_a_matrix_reads_its_edges(rng):
    pts = rng.standard_normal((60, 3))
    graph = build_knn_graph(pts, 7)
    built = build_laplacian(graph)
    dense = np.zeros((60, 60))
    for i, j in graph.edge_set:
        dense[i, j] = dense[j, i] = -1.0
    dense -= np.diag(dense.sum(axis=1))
    assert np.array_equal(built.matrix.toarray(), dense)
    for given in (built.matrix, built.matrix.tocoo(), built.matrix.tolil()):
        lap = LaplacianMatrix(dimension=60, matrix=given)
        assert np.array_equal(lap.edges, graph.edge_set)
        assert lap.matrix is given
        assert np.array_equal(smoothness_gradient(pts, lap), smoothness_gradient(pts, built))


def test_laplacian_rejects_other_matrices(rng):
    pts = rng.standard_normal((30, 3))
    graph = build_knn_graph(pts, 4)
    lap = build_laplacian(graph).matrix
    weighted = 2.0 * lap
    asymmetric = lap.tolil()
    i, j = graph.edge_set[0]
    asymmetric[i, j] = 0.0
    asymmetric[i, i] -= 1.0  # rows still sum to zero
    off_degree = (lap + 0.5 * scipy.sparse.eye(30)).tocsr()
    for matrix, why in ((weighted, "-1"), (asymmetric, "symmetric"), (off_degree, "degree")):
        with pytest.raises(InvalidInputError, match=why):
            LaplacianMatrix(dimension=30, matrix=matrix)
    with pytest.raises(InvalidInputError):
        LaplacianMatrix(dimension=31, matrix=lap)
    with pytest.raises(InvalidInputError):
        LaplacianMatrix(dimension=30, edges=graph.edge_set[::-1])
    with pytest.raises(InvalidInputError):
        LaplacianMatrix(dimension=30)


# ------------------------------------------------------------ smoothness


def test_smoothness_equals_edge_length_sum(rng):
    pts = rng.standard_normal((35, 3))
    graph = build_knn_graph(pts, 5)
    lap = build_laplacian(graph)
    edge_sum = sum(
        float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in graph.edge_set
    )
    assert smoothness(pts, lap) == pytest.approx(edge_sum, rel=1e-12)


def test_smoothness_scaling_and_translation(rng):
    pts = rng.standard_normal((24, 3))
    lap = build_laplacian(build_knn_graph(pts, 4))
    s = smoothness(pts, lap)
    assert smoothness(3.0 * pts, lap) == pytest.approx(9.0 * s, rel=1e-12)
    shifted = pts + np.array([5.0, -2.0, 0.25])
    assert smoothness(shifted, lap) == pytest.approx(s, rel=1e-9)
    assert np.allclose(
        smoothness_gradient(shifted, lap), smoothness_gradient(pts, lap), atol=1e-9
    )


def test_smoothness_gradient_matches_finite_differences(rng):
    pts = rng.standard_normal((12, 3))
    lap = build_laplacian(build_knn_graph(pts, 3))
    grad = smoothness_gradient(pts, lap)
    fd = numeric_grad(lambda x: smoothness(x, lap), pts.copy())
    assert np.max(np.abs(grad - fd)) < 1e-6


def test_smoothness_zero_for_coincident_points():
    pts = np.ones((6, 3))
    lap = build_laplacian(build_knn_graph(pts, 2))
    assert smoothness(pts, lap) == 0.0


def test_smoothness_dimension_mismatch(rng):
    pts = rng.standard_normal((10, 3))
    lap = build_laplacian(build_knn_graph(pts, 2))
    with pytest.raises(InvalidInputError):
        smoothness(pts[:5], lap)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=20),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_smoothness_nonnegative_property(n, k, seed):
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    lap = build_laplacian(build_knn_graph(pts, min(k, n - 1)))
    assert smoothness(pts, lap) >= 0.0
