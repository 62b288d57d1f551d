"""Hot distance kernels: exact k-NN search and Chamfer, blocked over rows.

Both kernels reproduce ``_reference`` bit for bit (same squared-distance
rounding, same (distance, index) neighbour order, same Chamfer value) while
holding only one block of rows against all points in memory at a time,
instead of the reference's N x N x 3 difference array and full row sort.
Both screen each block with one K=4 matmul and recompute exactly, by
direct differences in the reference's order, only what the screen's proven
rounding bound cannot settle.

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

Chamfer screens in float32 and needs only each row's nearest distance. Pool
both clouds, centre them on one float point and scale by 2^-e, which is
exact, so that every coordinate is below 1 in magnitude: P~ = fl(p - c)
2^-e. Round to float32, x = fl32(P~), and take u32 = 2^-24 and a_i = |x_i|.
One float32 matmul, ``[x_i, 1] . [-2 x_j^T; n_j]`` with n_j =
fl32(|x_j|^2 - c_j), gives s_ij, and the reference's d_ij, scaled by 2^-2e,
obeys

    |s_ij + c_j + a_i^2 - d_ij| <= 8 u32 a_i^2 + 13 u32 a_j^2 + 64 eta
                                <= c_i + c_j,  c = 16 u32 |x|^2 + 2^-120,

to first order in u32, with eta = 2^-126 the smallest normal float32:

- The matmul: a K=4 dot product errs by at most g_4 (2 sum|x_im x_jm| +
  |n_j|) <= 4 u32 (a_i^2 + 2 a_j^2), and rounding n_j to float32 adds
  u32 a_j^2 (|x_j|^2 is taken in float64 from the float32 coordinates).
- The cast: each coordinate moves by at most u32 |P~|, so the exact
  squared distance of the float32 points is within 2 u32 (a_i + a_j)^2
  <= 4 u32 (a_i^2 + a_j^2) of that of the scaled points.
- The centring and the reference's own rounding are float64: 14 u (a_i^2 +
  a_j^2) with u = 2^-53, as in the k-NN bound, which the constant covers.
- Underflow: a float32 operand or result below eta may be rounded to a
  subnormal or flushed, with an absolute error under eta each time. The
  cast moves the cross term 2 (P~_i - P~_j).(dx_i - dx_j) by at most 24 eta
  (every |coordinate| < 1), and the products, sums, n_j and flushed
  operands add at most 20 eta more; 64 eta = 2^-120 is the floor.

The column half c_j sits in n_j, so s_ij + a_i^2 - c_i bounds d_ij from
below for every column and s_ij + a_i^2 + c_i + 2 c_j from above. Take the
row's smallest screened value s_ij* and its runner-up. If the runner-up
exceeds s_ij* by more than 2 (c_i + c_j*), every other column's lower bound
is above column j*'s upper bound, so j* is the row's unique nearest column
and its exact distance is the row's minimum. Otherwise the row's nearest
column has s_ij <= s_ij* + 2 (c_i + c_j*), and the row recomputes every
column within that margin. The margins are taken in float64, whose rounding
the room between 8 + 13 and 16 + 16 covers. Each row minimum is the
reference's, so each mean and the Chamfer value are too. A cloud far wider
than the other, or a far outlier, widens only its own entries' bounds. On
smooth clouds well under 1% of rows are rechecked.
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
# Chamfer's screen bound is c = _CHAMFER_C * _U32 * |x|^2 + _CHAMFER_FLOOR per
# point in the scaled frame; the module docstring derives it.
_U32 = np.finfo(np.float32).eps / 2
_CHAMFER_C = 16.0
_CHAMFER_FLOOR = 2.0**-120
# One block for N <= 256, where per-call overhead dominates; at N=2048 the
# 64-row blocks this allows ran faster than 32 or 128 rows.
_CHAMFER_MOST_ROWS = 256


def _block_rows(n, most, itemsize=8):
    """Rows of a distance block computed at once against n columns.

    A block holds 8 to `most` rows of n entries of itemsize bytes, at most
    512 KiB unless eight rows exceed it. The k-NN screen takes float64
    blocks of up to _KNN_MOST_ROWS rows, Chamfer float32 blocks of up to
    _CHAMFER_MOST_ROWS.
    """
    return max(8, min(most, (1 << 19) // (itemsize * max(n, 1))))


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


def _sqdist_pairs(a, b):
    """Squared distance from each row of a to the same row of b, both (k, 3),
    accumulated as (dx*dx + dy*dy) + dz*dz like the reference."""
    d = a - b
    d *= d
    out = d[:, 0] + d[:, 1]
    out += d[:, 2]
    return out


def _chamfer_screen(p, q):
    """Float32 screen operands of the rows of p, then q, in one frame.

    The pooled points are centred on their mean and scaled by 2**-exp, so
    that every coordinate is below 1 in magnitude; x is that frame rounded
    to float32. Returns lhs (n, 4) = [x, 1] and rhs (4, n) = [-2 x^T;
    |x|^2 - c] in float32, c (n,) the module docstring's float64 bound
    c = _CHAMFER_C u32 |x|^2 + _CHAMFER_FLOOR, and exp.
    """
    cen = np.concatenate((p, q))
    cen -= cen.mean(axis=0)
    exp = int(np.frexp(np.abs(cen).max())[1])
    lhs = np.ones((len(cen), 4), dtype=np.float32)
    lhs[:, :3] = np.ldexp(cen, -exp)
    x = lhs[:, :3]
    sq = np.einsum("ij,ij->i", x, x, dtype=np.float64)
    c = (_CHAMFER_C * _U32) * sq + _CHAMFER_FLOOR
    rhs = np.empty((4, len(cen)), dtype=np.float32)
    np.multiply(x.T, -2.0, out=rhs[:3])
    rhs[3] = sq - c
    return lhs, rhs, c, exp


def _nearest_sqdist(pts, lhs, c, other, rhs, c_other):
    """Each row of pts's squared distance to its nearest row of other.

    Equal, bit for bit, to the row minima of the reference's squared
    distances. lhs and c are the rows' screen operands and bounds, rhs and
    c_other the columns'; the module docstring shows why each row's minimum
    is among the columns it recomputes.
    """
    n, m = len(pts), len(other)
    rows = _block_rows(m, _CHAMFER_MOST_ROWS, 4)
    buf = np.empty((min(rows, n), m), dtype=np.float32)
    offsets = np.arange(len(buf)) * m
    out = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        s = np.matmul(lhs[start:stop], rhs, out=buf[:stop - start])
        pick = s.argmin(axis=1)
        flat = s.reshape(-1)
        at = offsets[:stop - start] + pick
        low = flat[at]
        flat[at] = np.inf
        # The runner-up by a second argmin: a min reduction over short rows
        # is several times slower.
        runner_up = flat[offsets[:stop - start] + s.argmin(axis=1)]
        margin = 2.0 * (c[start:stop] + c_other[pick])
        todo = np.flatnonzero(np.subtract(runner_up, low, dtype=np.float64) <= margin)
        block = pts[start:stop]
        d = out[start:stop]
        d[:] = _sqdist_pairs(block, other[pick])
        if todo.size:
            # Rows whose runner-up lies within the margin recompute every
            # other column inside it.
            row, col = np.divmod(np.flatnonzero(s[todo] <= (low[todo] + margin[todo])[:, None]), m)
            row = todo[row]
            np.minimum.at(d, row, _sqdist_pairs(block[row], other[col]))
    return out


def chamfer(p, q):
    """Symmetric squared-distance Chamfer between two point sets.

    Equal, bit for bit, to ``_reference.chamfer`` for finite points whose
    squared distances neither overflow nor underflow float64: each
    direction's row minima are the reference's, averaged the same way.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    n = len(p)
    lhs, rhs, c, _ = _chamfer_screen(p, q)
    to_q = _nearest_sqdist(p, lhs[:n], c[:n], q, rhs[:, n:], c[n:])
    to_p = _nearest_sqdist(q, lhs[n:], c[n:], p, rhs[:, :n], c[:n])
    return float(to_q.mean() + to_p.mean())
