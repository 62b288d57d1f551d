"""Set-level evaluation of generated clouds against a reference set.

Distances between clouds use the squared-distance Chamfer discrepancy

    D(P, Q) = mean_p min_q ||p - q||^2 + mean_q min_p ||q - p||^2

which feeds minimum-matching distance (MMD), coverage (COV), and the
1-nearest-neighbor two-sample accuracy (1-NNA, ideal 0.5). Relative
smoothness (RS) compares mean graph smoothness between the two sets, each
cloud measured on its own k-NN Laplacian.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError, InvalidParameterError
from .geometry import _as_points, build_knn_graph, build_laplacian
from .geometry import smoothness as graph_smoothness
from .pointio import _atomic_open


def chamfer(p, q):
    """Symmetric squared-distance Chamfer discrepancy between two clouds."""
    return _kernels.chamfer(_as_points(p), _as_points(q))


def _check_sets(reference, generated):
    if len(reference) == 0 or len(generated) == 0:
        raise InvalidInputError("both cloud sets must be nonempty")


def _pooled_distances(reference, generated):
    """Chamfer matrix over the pool: reference clouds first, then generated.

    Each unordered pair is computed once; the diagonal is +inf so a cloud is
    never its own nearest neighbor.
    """
    pool = [_as_points(c) for c in reference] + [_as_points(c) for c in generated]
    n = len(pool)
    d = np.empty((n, n))
    np.fill_diagonal(d, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = _kernels.chamfer(pool[i], pool[j])
    return d


def _mmd(d, n_ref):
    return float(d[:n_ref, n_ref:].min(axis=1).mean())


def _cov(d, n_ref):
    return float(np.unique(d[:n_ref, n_ref:].argmin(axis=0)).size) / n_ref


def _one_nna(d, n_ref):
    labels = np.arange(len(d)) >= n_ref
    return float(np.mean(labels[d.argmin(axis=1)] == labels))


def mmd(reference, generated):
    """Mean over reference clouds of the closest generated Chamfer distance."""
    _check_sets(reference, generated)
    return _mmd(_pooled_distances(reference, generated), len(reference))


def cov(reference, generated):
    """Fraction of reference clouds that are some generated cloud's nearest.

    Argmin ties resolve to the lowest reference index.
    """
    _check_sets(reference, generated)
    return _cov(_pooled_distances(reference, generated), len(reference))


def one_nna(reference, generated):
    """Leave-one-out 1-NN two-sample accuracy over the pooled sets.

    The pool lists reference clouds first, then generated ones; distance ties
    resolve to the lower pooled index. 0.5 means the sets are
    indistinguishable to this classifier.
    """
    _check_sets(reference, generated)
    return _one_nna(_pooled_distances(reference, generated), len(reference))


def _mean_smoothness(clouds, k):
    total = 0.0
    for c in clouds:
        pts = _as_points(c)
        if pts.shape[0] < k + 1:
            raise InvalidInputError(
                f"smoothness at k={k} needs clouds with more than {k} points"
            )
        lap = build_laplacian(build_knn_graph(pts, k))
        total += graph_smoothness(pts, lap)
    return total / len(clouds)


def rs(model_set, data_set, k=30):
    """Absolute gap in mean graph smoothness between the two sets."""
    _check_sets(model_set, data_set)
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return abs(_mean_smoothness(model_set, k) - _mean_smoothness(data_set, k))


@dataclass(frozen=True)
class MetricReport:
    mmd: float
    cov: float
    one_nna: float
    rs: float
    gt_smoothness: float
    model_smoothness: float
    knn_k: int
    n_reference: int
    n_generated: int


def evaluate_sets(reference, generated, knn_k=30):
    """All set metrics in one pass; smoothness stats use k = knn_k."""
    _check_sets(reference, generated)
    gt_s = _mean_smoothness(reference, knn_k)
    model_s = _mean_smoothness(generated, knn_k)
    d = _pooled_distances(reference, generated)
    n_ref = len(reference)
    return MetricReport(
        mmd=_mmd(d, n_ref),
        cov=_cov(d, n_ref),
        one_nna=_one_nna(d, n_ref),
        rs=abs(model_s - gt_s),
        gt_smoothness=gt_s,
        model_smoothness=model_s,
        knn_k=knn_k,
        n_reference=len(reference),
        n_generated=len(generated),
    )


def write_metrics_csv(path, report):
    """Two-column metric,value table; mmd appears both raw and x100."""
    rows = [
        ("mmd", report.mmd),
        ("mmd_x100", 100.0 * report.mmd),
        ("cov", report.cov),
        ("one_nna", report.one_nna),
        ("rs", report.rs),
        ("gt_smoothness", report.gt_smoothness),
        ("model_smoothness", report.model_smoothness),
    ]
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in rows:
            writer.writerow([name, repr(float(value))])
