"""Point clouds, KNN graphs, graph Laplacians, and synthetic shapes.

The smoothness functional S(X) = trace(X^T L X) over a cloud's KNN-graph
Laplacian measures how far each point sits from its neighbors; it is the
quantity the constrained sampler pushes down. The Laplacian is combinatorial
(L = D - W, binary weights) on the symmetrized (union-rule) KNN graph, which
keeps L symmetric positive semidefinite and makes the gradient exactly 2LX.

With binary weights L is fixed by its undirected edge list, so L X and S are
sums over the edges: S = sum of |x_i - x_j|^2, and row i of L X sums
x_i - x_j over the edges at i. Both are computed from the edges in NumPy;
the SciPy CSR form of L is built only when `LaplacianMatrix.matrix` is read,
and that is the one place scipy.sparse is imported.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidInputError, InvalidParameterError

SHAPE_KINDS = ("sphere", "torus", "plane_grid", "helix")


def _as_points(cloud):
    """A PointCloud's points, or a raw array checked by the PointCloud rules.

    The rules: shape (N, 3) with N >= 1 and every coordinate finite. A
    float64 array passes through without a copy.
    """
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"points must be (N, 3), got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise InvalidInputError("point cloud must contain at least one point")
    if not np.isfinite(pts).all():
        raise InvalidInputError("point coordinates must be finite")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """An immutable N x 3 matrix of point coordinates."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(_as_points(self.points))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class KnnGraph:
    """Directed KNN lists plus their symmetric (union-rule) closure.

    neighbor_lists is (N, k): row i holds the indices of the k nearest points
    to point i, nearest first, ties broken by lower index. edge_set is (E, 2)
    with i < j per row, lexicographically sorted.
    """

    k: int
    n_nodes: int
    neighbor_lists: np.ndarray
    edge_set: np.ndarray

    def __post_init__(self):
        for name in ("neighbor_lists", "edge_set"):
            arr = getattr(self, name)
            arr = np.array(arr, dtype=np.int64)  # a copy: the caller's array stays theirs
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, init=False, eq=False)
class LaplacianMatrix:
    """Combinatorial Laplacian L = D - W of a graph with binary weights.

    Held as its undirected edge list: edges is (E, 2) with i < j per row,
    lexicographically sorted and without repeats. Give either the edges or
    a SciPy sparse matrix; a matrix is read once (through its tocoo()) and
    must be symmetric with off-diagonal entries -1 and the degree on the
    diagonal. `matrix` is the SciPy CSR form, built on first access unless
    one was given.
    """

    dimension: int
    edges: np.ndarray = field(repr=False)

    def __init__(self, dimension, matrix=None, *, edges=None):
        n = int(dimension)
        if (matrix is None) == (edges is None):
            raise InvalidInputError("LaplacianMatrix takes exactly one of matrix and edges")
        edges = _matrix_edges(matrix, n) if edges is None else _checked_edges(edges, n)
        edges.flags.writeable = False
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self):
        if self._matrix is None:
            import scipy.sparse as sp

            n = self.dimension
            i = self.edges[:, 0]
            j = self.edges[:, 1]
            rows = np.concatenate([i, j])
            cols = np.concatenate([j, i])
            w = sp.coo_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
            deg = np.asarray(w.sum(axis=1)).ravel()
            object.__setattr__(self, "_matrix", (sp.diags(deg) - w).tocsr())
        return self._matrix


def _checked_edges(edges, n):
    """Edges as given: (E, 2) integers, 0 <= i < j < n, sorted without repeats."""
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    key = edges[:, 0] * n + edges[:, 1]
    if edges.size and (
        edges.min() < 0 or edges.max() >= n
        or np.any(edges[:, 0] >= edges[:, 1]) or np.any(np.diff(key) <= 0)
    ):
        raise InvalidInputError(
            f"edges must be sorted pairs 0 <= i < j < {n} without repeats"
        )
    return edges


def _matrix_edges(matrix, n):
    """The edge list of a binary-weight Laplacian given as a SciPy sparse matrix."""
    coo = matrix.tocoo()
    if coo.shape != (n, n):
        raise InvalidInputError(f"Laplacian matrix shape {coo.shape} != ({n}, {n})")
    # Sum repeated entries and drop zeros, so that only the matrix's values count.
    key, inverse = np.unique(
        coo.row.astype(np.int64) * n + coo.col.astype(np.int64), return_inverse=True
    )
    value = np.bincount(inverse.ravel(), weights=coo.data, minlength=key.size)
    key, value = key[value != 0], value[value != 0]
    row, col = np.divmod(key, n)
    upper, lower = row < col, row > col
    if not np.array_equal(key[upper], np.sort(col[lower] * n + row[lower])):
        raise InvalidInputError("Laplacian matrix is not symmetric")
    if np.any(value[row != col] != -1.0):
        raise InvalidInputError("Laplacian off-diagonal entries must be -1")
    edges = np.stack([row[upper], col[upper]], axis=1)
    diag = np.zeros(n)
    diag[row[row == col]] = value[row == col]
    if not np.array_equal(diag, np.bincount(edges.ravel(), minlength=n)):
        raise InvalidInputError("Laplacian diagonal must equal the vertex degrees")
    return edges


def build_knn_graph(cloud, k):
    """Build the k-nearest-neighbor graph of a cloud.

    Requires 1 <= k <= N-1. Euclidean distance, self excluded, distance ties
    broken by ascending point index. The edge set is the symmetric closure of
    the directed lists (an undirected edge exists if either endpoint selects
    the other).
    """
    pts = _as_points(cloud)
    n = pts.shape[0]
    if n < 2:
        raise InvalidInputError("graph construction needs at least 2 points")
    if not (1 <= int(k) <= n - 1):
        raise InvalidParameterError(f"k must satisfy 1 <= k <= N-1 = {n - 1}, got {k}")
    k = int(k)

    neighbors = _kernels.knn_neighbors(pts, k)

    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = neighbors.reshape(-1)
    # lo * n + hi sorts like the pair (lo, hi), so the sorted 1-D keys without
    # repeats are the lexicographically sorted edge set. A sort and a
    # neighbour comparison do what np.unique does, without its hash path.
    key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    edges = np.stack(np.divmod(key, n), axis=1)
    return KnnGraph(k=k, n_nodes=n, neighbor_lists=neighbors, edge_set=edges)


def build_laplacian(graph):
    """Combinatorial Laplacian L = D - W with binary symmetric adjacency."""
    if not isinstance(graph, KnnGraph):
        raise InvalidInputError("build_laplacian expects a KnnGraph")
    return LaplacianMatrix(dimension=graph.n_nodes, edges=graph.edge_set)


def _check_dims(pts, laplacian):
    if laplacian.dimension != pts.shape[0]:
        raise InvalidInputError(
            f"Laplacian dimension {laplacian.dimension} != number of points {pts.shape[0]}"
        )


def smoothness(cloud, laplacian):
    """S(X) = trace(X^T L X), the graph smoothness of the cloud.

    Equals the sum of squared edge lengths over the undirected edge set;
    zero exactly when the cloud is constant on each connected component.
    """
    d = _edge_differences(cloud, laplacian)
    return float(np.sum(d * d))


def smoothness_gradient(cloud, laplacian):
    """Gradient of S with respect to the point coordinates: 2 L X.

    Row i of L X is the sum of x_i - x_j over the neighbors j of i.
    """
    d = _edge_differences(cloud, laplacian)
    i = laplacian.edges[:, 0]
    j = laplacian.edges[:, 1]
    n = laplacian.dimension
    return 2.0 * np.stack(
        [np.bincount(i, dc, minlength=n) - np.bincount(j, dc, minlength=n) for dc in d],
        axis=1,
    )


def _edge_differences(cloud, laplacian):
    """(3, E): the coordinates of x_i - x_j for every edge (i, j)."""
    pts = _as_points(cloud)
    _check_dims(pts, laplacian)
    # np.take on contiguous rows gathers several times faster than fancy indexing.
    cols = np.ascontiguousarray(pts.T)
    return np.take(cols, laplacian.edges[:, 0], axis=1) - np.take(
        cols, laplacian.edges[:, 1], axis=1
    )


@dataclass(frozen=True)
class ShapeSpec:
    """Recipe for a deterministic synthetic cloud: ideal surface + jitter.

    Size parameters are read per kind: sphere uses `radius`; torus uses
    `major_radius`/`minor_radius`; plane_grid uses `extent` (side length of a
    square grid in the z = 0 plane); helix uses `radius`, `height`, `turns`.
    Defaults keep the bounding-box diagonal of the ideal surface at most 2.
    """

    kind: str
    n_points: int
    noise_std: float = 0.0
    rng_seed: int = 0
    radius: float = 0.5
    major_radius: float = 0.5
    minor_radius: float = 0.15
    extent: float = 1.0
    height: float = 1.0
    turns: float = 3.0

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise InvalidParameterError(
                f"unknown shape kind {self.kind!r}; expected one of {SHAPE_KINDS}"
            )
        if self.n_points < 1:
            raise InvalidParameterError("n_points must be positive")
        if self.noise_std < 0:
            raise InvalidParameterError("noise_std must be nonnegative")


def generate_shape(spec):
    """Sample a cloud on the spec's ideal surface, plus seeded Gaussian jitter.

    The surface is centered at the origin by construction (no empirical
    recentering, so exact-surface residuals hold at noise_std = 0), and the
    same spec and seed always produce a bit-identical cloud.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.n_points

    if spec.kind == "sphere":
        v = rng.standard_normal((n, 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        pts = spec.radius * v / norms
    elif spec.kind == "torus":
        u = rng.uniform(0.0, 2.0 * np.pi, n)
        v = rng.uniform(0.0, 2.0 * np.pi, n)
        ring = spec.major_radius + spec.minor_radius * np.cos(v)
        pts = np.stack(
            [ring * np.cos(u), ring * np.sin(u), spec.minor_radius * np.sin(v)], axis=1
        )
    elif spec.kind == "plane_grid":
        side = int(np.ceil(np.sqrt(n)))
        axis = np.linspace(-0.5 * spec.extent, 0.5 * spec.extent, side)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(side * side)], axis=1)[:n]
    elif spec.kind == "helix":
        s = np.linspace(0.0, 1.0, n)
        theta = 2.0 * np.pi * spec.turns * s
        pts = np.stack(
            [
                spec.radius * np.cos(theta),
                spec.radius * np.sin(theta),
                spec.height * (s - 0.5),
            ],
            axis=1,
        )
    else:  # unreachable; ShapeSpec validates kind
        raise InvalidParameterError(f"unknown shape kind {spec.kind!r}")

    if spec.noise_std > 0:
        pts = pts + spec.noise_std * rng.standard_normal((n, 3))
    return PointCloud(pts)
