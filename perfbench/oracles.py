"""Independent checks of smoothdiff outputs, written without smoothdiff.

Every function here recomputes a result from first principles with NumPy
(and SciPy's sparse type only to read a Laplacian the program built) and
returns a list of failure messages; an empty list means the check passed.
The conventions the program documents are reproduced on purpose:

* squared distances are accumulated coordinate by coordinate,
  dx*dx + dy*dy + dz*dz, so exact ties stay exact;
* k-NN lists exclude the point itself and order by (distance, index);
* Chamfer is mean_p min_q d2 + mean_q min_p d2;
* COV's argmin and 1-NNA's nearest neighbour resolve ties to the lowest
  index, and the 1-NNA pool lists reference clouds first.
"""

import numpy as np

ROW_CHUNK = 256


def read_xyz(path):
    """Parse an xyz-ascii file (three floats per line) into an (N, 3) array."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def write_xyz(path, points):
    """Write points as xyz-ascii with round-trip exact float digits."""
    with open(path, "w", newline="") as fh:
        for x, y, z in points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def sqdist(p, q):
    """Squared distances, accumulated coordinate by coordinate."""
    out = None
    for c in range(3):
        d = p[:, None, c] - q[None, :, c]
        out = d * d if out is None else out + d * d
    return out


def knn_rows(points, k, rows):
    """Brute-force k nearest neighbours of the given rows, (distance, index) order."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty((rows.size, k), dtype=np.int64)
    for lo in range(0, rows.size, ROW_CHUNK):
        sel = rows[lo : lo + ROW_CHUNK]
        d2 = sqdist(points[sel], points)
        d2[np.arange(sel.size), sel] = np.inf
        # A stable sort keeps equal distances in index order.
        out[lo : lo + sel.size] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def check_knn_rows(points, k, neighbors, rows):
    """Compare the program's neighbour lists with brute force on the given rows."""
    expected = knn_rows(points, k, rows)
    got = np.asarray(neighbors)[np.asarray(rows)]
    bad = np.flatnonzero(np.any(got != expected, axis=1))
    if bad.size == 0:
        return []
    r = int(np.asarray(rows)[bad[0]])
    return [f"knn: {bad.size} of {len(rows)} rows differ from brute force; "
            f"row {r}: got {got[bad[0]].tolist()[:6]}..., "
            f"expected {expected[bad[0]].tolist()[:6]}..."]


def union_edges(neighbors):
    """Sorted (E, 2) undirected edge set, i < j, of directed k-NN lists."""
    n, k = neighbors.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = neighbors.reshape(-1)
    key = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return np.stack([key // n, key % n], axis=1)


def edge_smoothness(points, edges):
    """Sum of squared edge lengths: S(X) = trace(X^T L X) for a 0/1 graph."""
    d = points[edges[:, 0]] - points[edges[:, 1]]
    return float(np.sum(d * d))


def smoothness(points, k):
    """Graph smoothness of a cloud on its brute-force symmetrised k-NN graph."""
    nbrs = knn_rows(points, k, np.arange(points.shape[0]))
    return edge_smoothness(points, union_edges(nbrs))


def check_laplacian(lap, points, edges, program_smoothness):
    """Symmetry, zero row sums, the edge set, and S against squared edge lengths."""
    fails = []
    m = lap.tocsr()
    n = points.shape[0]
    if m.shape != (n, n):
        return [f"laplacian: shape {m.shape} for {n} points"]
    if abs(m - m.T).max() != 0.0:
        fails.append("laplacian: not symmetric")
    rowsum = np.abs(np.asarray(m.sum(axis=1)).ravel()).max()
    if rowsum != 0.0:
        fails.append(f"laplacian: row sums reach {rowsum!r}, expected 0")
    off = m.copy()
    off.setdiag(0)
    off.eliminate_zeros()
    coo = off.tocoo()
    upper = coo.row < coo.col
    got_edges = np.stack([coo.row[upper], coo.col[upper]], axis=1).astype(np.int64)
    got_edges = got_edges[np.lexsort((got_edges[:, 1], got_edges[:, 0]))]
    if not np.array_equal(got_edges, edges):
        fails.append(f"laplacian: {len(got_edges)} edges, brute force gives {len(edges)}")
    if not np.all(coo.data == -1.0):
        fails.append("laplacian: off-diagonal weights are not -1")
    s_edges = edge_smoothness(points, edges)
    s_quad = float(np.sum(points * (m @ points)))
    for name, value in (("x^T L x", s_quad), ("program smoothness", program_smoothness)):
        if not close(value, s_edges, 1e-10):
            fails.append(f"laplacian: {name} = {value!r}, sum of squared "
                         f"edge lengths = {s_edges!r}")
    return fails


def chamfer(p, q):
    """Symmetric squared-distance Chamfer, computed in row chunks."""
    min_p = np.empty(p.shape[0])
    min_q = np.full(q.shape[0], np.inf)
    for lo in range(0, p.shape[0], ROW_CHUNK):
        d2 = sqdist(p[lo : lo + ROW_CHUNK], q)
        min_p[lo : lo + d2.shape[0]] = d2.min(axis=1)
        np.minimum(min_q, d2.min(axis=0), out=min_q)
    return float(min_p.mean() + min_q.mean())


def pooled_distances(clouds):
    """Chamfer matrix over a list of clouds, zero diagonal."""
    n = len(clouds)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = chamfer(clouds[i], clouds[j])
    return d


def set_metrics(reference, generated, knn_k):
    """MMD, COV, 1-NNA and smoothness statistics from one pooled matrix."""
    r = len(reference)
    pool = pooled_distances(list(reference) + list(generated))
    cross = pool[:r, r:]
    labels = np.array([0] * r + [1] * len(generated))
    loo = pool.copy()
    np.fill_diagonal(loo, np.inf)
    gt_s = sum(smoothness(c, knn_k) for c in reference) / r
    model_s = sum(smoothness(c, knn_k) for c in generated) / len(generated)
    return {
        "mmd": float(cross.min(axis=1).mean()),
        "cov": float(np.unique(cross.argmin(axis=0)).size) / r,
        "one_nna": float(np.mean(labels[loo.argmin(axis=1)] == labels)),
        "rs": abs(model_s - gt_s),
        "gt_smoothness": gt_s,
        "model_smoothness": model_s,
    }


def check_set_metrics(reported, reference, generated, knn_k):
    """Compare a metrics.csv row set with the independent recomputation."""
    expected = set_metrics(reference, generated, knn_k)
    fails = []
    for name, want in expected.items():
        got = reported.get(name)
        exact = name in ("cov", "one_nna")
        if got is None:
            fails.append(f"metrics: {name} missing")
        elif (got != want) if exact else not close(got, want, 1e-9):
            fails.append(f"metrics: {name} = {got!r}, oracle {want!r}")
    return fails


def torus_residual(points, major, minor):
    """Largest |(sqrt(x^2 + y^2) - R)^2 + z^2 - r^2| over the cloud."""
    ring = np.hypot(points[:, 0], points[:, 1]) - major
    return float(np.max(np.abs(ring * ring + points[:, 2] ** 2 - minor * minor)))


def vp_coefs(beta_min, beta_max, t):
    """a(t), b(t) of the linear-beta VP-SDE in closed form."""
    integral = beta_min * t + 0.5 * (beta_max - beta_min) * t * t
    return float(np.exp(-0.5 * integral)), float(np.sqrt(-np.expm1(-integral)))


def central_difference(f, x, direction, h):
    """(f(x + h v) - f(x - h v)) / 2h for a scalar function of an array."""
    return (f(x + h * direction) - f(x - h * direction)) / (2.0 * h)


def check_fd(name, analytic, numeric, rtol):
    scale = max(1.0, abs(numeric))
    if abs(analytic - numeric) <= rtol * scale:
        return []
    return [f"{name}: analytic {analytic!r}, central difference {numeric!r}"]


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))
