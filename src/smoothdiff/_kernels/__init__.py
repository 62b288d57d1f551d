"""Hot distance kernels: exact k-NN search and Chamfer, blocked over rows.

Both kernels reproduce ``_reference`` bit for bit (same squared-distance
rounding, same (distance, index) neighbour order, same Chamfer value) while
holding only one block of rows against all points in memory at a time,
instead of the reference's N x N x 3 difference array and full row sort.

Chamfer computes every squared distance by direct differences, in the
reference's order. A block's temporaries stay at or under 512 KiB for N up
to 8192: at N=2048, 1 MiB blocks of direct differences (64 rows) took ten
times the page faults of 32-row blocks (about 10,400 against 1,100 per
k-NN graph) and ran 1.5x slower.

k-NN screens with a matmul and rechecks a few candidates exactly. Centre
the cloud once (P = fl(p - c) for any float centre c). One K=4 matmul,
``[P, 1] . [-2 P^T; fl(|P|^2)]``, gives s_ij = |P_j|^2 - 2 P_i.P_j, the
squared distance less the row constant |P_i|^2. With u = 2^-53 the unit
roundoff, a_i = |P_i|, a = max_j a_j and g_n = n u / (1 - n u), the
reference's d_ij = fl((dx*dx + dy*dy) + dz*dz) on the raw differences obeys

    |s_ij + a_i^2 - d_ij| <= 18 u a_i^2 + 25 u a_j^2 + O(u^2)
                          <= e_i = 32 u (a_i^2 + a^2),

summing three terms:

- The matmul, in any summation order, with or without FMA: a K=4 dot
  product errs by at most g_4 sum|x_m y_m| = g_4 (2 sum|P_ix P_jx| +
  fl(a_j^2)) <= g_4 (a_i^2 + (2 + g_3) a_j^2), and fl(a_j^2) itself errs
  by g_3 a_j^2: 4 u a_i^2 + 11 u a_j^2.
- The centring: fl(p - c) errs by at most u |P| per coordinate, so
  P_i - P_j is within u (a_i + a_j) of p_i - p_j, and their squared norms
  differ by at most u (2 + u) (a_i + a_j)^2 <= 4 u (a_i^2 + a_j^2) + O(u^2).
- The reference's own rounding: each of its three squares passes through at
  most five roundings (the difference, counted twice, the product and two
  sums), so d_ij is within g_5 |p_i - p_j|^2 <= 10 u (a_i^2 + a_j^2)
  + O(u^2) of the exact value.

Take S_k, the k-th smallest s_ij in row i with the diagonal at +inf. Some
k columns have d_ij <= S_k + a_i^2 + e_i, so every column the reference
ranks in its first k has s_ij <= d_ij - a_i^2 + e_i <= S_k + 2 e_i. The
kernel keeps the columns with s_ij <= fl(S_k + 2 e_i); rounding that sum
moves it by at most u (|S_k| + 2 e_i) <= 2 u (a_i^2 + a^2), which the
constant covers with room for the O(u^2) terms and the rounding of
fl(a_i^2) in e_i (26 u would do; 32 u is used). It recomputes those
candidates' distances as the reference does and picks the first k by
(distance, index): a superset of the reference's first k, ordered by the
reference's own key, yields the reference's lists, ties included. On
smooth clouds exactly k candidates survive per row; exact ties and
duplicates add a few.
"""

import numpy as np

from . import _reference  # the test oracle, reached as _kernels._reference

# The screen's error bound is _SCREEN_C * _U * (|P_i|^2 + max_j |P_j|^2);
# the module docstring derives it.
_U = np.finfo(np.float64).eps / 2
_SCREEN_C = 32.0
# At N=256, best of 100 on four clouds, blocks of 128 rows took 0.87-1.28 ms,
# 64 rows 0.95-1.49 ms and one 256-row block 0.92-1.74 ms.
_KNN_MOST_ROWS = 128


def _block_rows(n, most=64):
    """Rows of a distance block computed at once against n columns.

    Each temporary is that many rows x n: 8 to `most` rows, at most 65536
    entries (512 KiB of float64) unless n exceeds 8192. Chamfer takes the
    default; the k-NN screen takes _KNN_MOST_ROWS.
    """
    return max(8, min(most, 65536 // max(n, 1)))


def backend_name():
    """Name of the kernel backend; the NumPy kernels are the only one."""
    return "python"


def _sqdist_rows(p, qt):
    """Squared distances from the rows of p (b, 3) to the columns of qt (3, n).

    qt may also be (3, b, m): m columns of its own for each row of p.
    Accumulated as (dx*dx + dy*dy) + dz*dz, the order of the reference, so
    every entry rounds identically.
    """
    d = np.subtract(p[:, 0:1], qt[0])
    d *= d
    t = np.subtract(p[:, 1:2], qt[1])
    t *= t
    d += t
    np.subtract(p[:, 2:3], qt[2], out=t)
    t *= t
    d += t
    return d


def _screen(pts):
    """Screen operands of a cloud and each row's error bound.

    lhs (N, 4) @ rhs (4, N) is s_ij = |P_j|^2 - 2 P_i.P_j on the centred
    points P; err (N,) is e_i, the module docstring's bound on
    |s_ij + |P_i|^2 - d_ij| against the reference's squared distance d_ij.
    """
    cen = pts - pts.mean(axis=0)
    sq = np.einsum("ij,ij->i", cen, cen)
    lhs = np.column_stack((cen, np.ones(len(pts))))
    rhs = np.vstack((-2.0 * cen.T, sq))
    return lhs, rhs, (_SCREEN_C * _U) * (sq + sq.max())


def knn_neighbors(points, k):
    """Indices of the k nearest points for every point, self excluded.

    Ties in distance are broken by the lower point index. Returns an
    (N, k) int64 array, equal to ``_reference.knn_neighbors`` for finite
    points whose squared distances do not overflow. Each row keeps the
    columns within twice its screen bound of its k-th screened value and
    ranks them by their distance in the reference's rounding; the module
    docstring shows why that is the reference's answer.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    xyz = np.ascontiguousarray(pts.T)
    lhs, rhs, err = _screen(pts)
    out = np.empty((n, k), dtype=np.int64)
    rows = _block_rows(n, _KNN_MOST_ROWS)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        b = stop - start
        s = lhs[start:stop] @ rhs
        s[np.arange(b), np.arange(start, stop)] = np.inf
        limit = np.partition(s, k - 1, axis=1)[:, k - 1]
        limit += 2.0 * err[start:stop]
        # Candidates row by row, each row's in index order.
        row, cols = np.divmod(np.flatnonzero(s <= limit[:, None]), n)
        pad = None
        if cols.size == b * k:
            cols = cols.reshape(b, k)
        else:
            # Some rows have more than k candidates (ties, duplicates): pad
            # every row to the widest, with NaN distances, which the stable
            # sort puts after the row's own candidates.
            count = np.bincount(row, minlength=b)
            pad = np.arange(count.max()) >= count[:, None]
            padded = np.zeros(pad.shape, dtype=np.int64)
            padded[~pad] = cols
            cols = padded
        d = _sqdist_rows(pts[start:stop], np.take(xyz, cols, axis=1))
        if pad is not None:
            d[pad] = np.nan
        # Index order first, then a stable sort on distance, gives the
        # (distance, index) order.
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        out[start:stop] = np.take_along_axis(cols, order, axis=1)
    return out


def chamfer(p, q):
    """Symmetric squared-distance Chamfer between two point sets."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    qt = np.ascontiguousarray(np.asarray(q, dtype=np.float64).T)
    row_min = np.empty(p.shape[0])
    col_min = np.full(qt.shape[1], np.inf)
    rows = _block_rows(qt.shape[1])
    for start in range(0, p.shape[0], rows):
        stop = min(start + rows, p.shape[0])
        d2 = _sqdist_rows(p[start:stop], qt)
        d2.min(axis=1, out=row_min[start:stop])
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    return float(row_min.mean() + col_min.mean())
