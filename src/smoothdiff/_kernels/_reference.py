"""Plain NumPy reference implementations of the hot kernels.

These define the semantics the blocked kernels in ``smoothdiff._kernels``
must reproduce bit for bit: squared Euclidean distances accumulated
coordinate by coordinate, neighbor ties broken by ascending point index,
Chamfer terms averaged per direction. They hold full N x N x 3 temporaries
and serve as the test oracle.
"""

import numpy as np


def _sqdist_matrix(p, q):
    # Direct differences (not the |p|^2+|q|^2-2pq expansion) so the blocked
    # kernels round identically and tie-breaking is reproducible.
    diff = p[:, None, :] - q[None, :, :]
    return np.add.reduce(diff * diff, axis=-1)


def knn_neighbors(points, k):
    """Indices of the k nearest points for every point, self excluded.

    Ties in distance are broken by the lower point index. Returns an
    (N, k) int64 array.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    d2 = _sqdist_matrix(pts, pts)
    np.fill_diagonal(d2, np.inf)
    # Stable sort keeps equal distances in index order == lexicographic
    # ordering by (distance, index).
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def chamfer(p, q):
    """Symmetric squared-distance Chamfer between two point sets."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    d2 = _sqdist_matrix(p, q)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())
