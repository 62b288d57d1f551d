"""Set-level metrics against brute-force oracles written in plain loops."""

import csv

import numpy as np
import pytest

import smoothdiff
from smoothdiff import (
    InvalidInputError,
    build_knn_graph,
    build_laplacian,
    cov,
    evaluate_sets,
    mmd,
    one_nna,
    rs,
    smoothness,
)
from smoothdiff.metrics import chamfer, write_metrics_csv


def oracle_chamfer(p, q):
    fwd = np.mean([min(np.sum((a - b) ** 2) for b in q) for a in p])
    bwd = np.mean([min(np.sum((a - b) ** 2) for a in p) for b in q])
    return fwd + bwd


def make_sets(rng, n_ref=8, n_gen=8, n_points=12):
    ref = [rng.standard_normal((n_points, 3)) for _ in range(n_ref)]
    gen = [rng.standard_normal((n_points, 3)) + 0.2 for _ in range(n_gen)]
    return ref, gen


def test_chamfer_matches_loop_oracle(rng):
    for _ in range(5):
        p = rng.standard_normal((9, 3))
        q = rng.standard_normal((14, 3))
        assert chamfer(p, q) == pytest.approx(oracle_chamfer(p, q), rel=1e-12)


def test_chamfer_hand_case():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # forward: min(1, 1) = 1 ; backward: (1 + 1)/2 = 1
    assert chamfer(p, q) == 2.0


def test_mmd_matches_loop_oracle(rng):
    ref, gen = make_sets(rng)
    d = np.array([[chamfer(r, g) for g in gen] for r in ref])
    expected = float(np.mean([row.min() for row in d]))
    assert mmd(ref, gen) == pytest.approx(expected, rel=1e-14)


def test_cov_matches_loop_oracle(rng):
    ref, gen = make_sets(rng, n_ref=6, n_gen=10)
    d = np.array([[chamfer(r, g) for g in gen] for r in ref])
    covered = {int(np.argmin(d[:, j])) for j in range(d.shape[1])}
    assert cov(ref, gen) == pytest.approx(len(covered) / len(ref), rel=1e-14)


def test_one_nna_matches_loop_oracle(rng):
    ref, gen = make_sets(rng, n_ref=5, n_gen=7)
    pool = ref + gen
    labels = [0] * len(ref) + [1] * len(gen)
    correct = 0
    for i in range(len(pool)):
        dists = [
            chamfer(pool[i], pool[j]) if j != i else np.inf for j in range(len(pool))
        ]
        nn = int(np.argmin(dists))
        correct += labels[nn] == labels[i]
    assert one_nna(ref, gen) == pytest.approx(correct / len(pool), rel=1e-14)


def test_identical_sets_are_degenerate(rng):
    clouds = [rng.standard_normal((10, 3)) for _ in range(6)]
    assert mmd(clouds, clouds) == 0.0
    assert cov(clouds, clouds) == 1.0
    # every pooled member's nearest neighbor is its duplicate from the other
    # set, so the classifier is always wrong
    assert one_nna(clouds, clouds) == 0.0
    assert rs(clouds, clouds, k=3) == 0.0


def test_one_nna_separable_sets(rng):
    ref = [rng.standard_normal((10, 3)) for _ in range(5)]
    gen = [rng.standard_normal((10, 3)) + 50.0 for _ in range(5)]
    assert one_nna(ref, gen) == 1.0


def test_mmd_argument_order(rng):
    # mmd averages over the FIRST argument's clouds; an asymmetric pair
    # distinguishes the two orders
    tight = [np.zeros((8, 3)) + 1e-3 * rng.standard_normal((8, 3)) for _ in range(2)]
    spread = [rng.standard_normal((8, 3)) * 3.0 for _ in range(9)]
    assert mmd(tight, spread) != pytest.approx(mmd(spread, tight), rel=1e-3)


def test_rs_compares_mean_smoothness(rng):
    smooth_set = [0.05 * rng.standard_normal((12, 3)) for _ in range(4)]
    rough_set = [2.0 * rng.standard_normal((12, 3)) for _ in range(4)]

    def mean_s(clouds, k):
        out = []
        for c in clouds:
            lap = build_laplacian(build_knn_graph(c, k))
            out.append(smoothness(c, lap))
        return np.mean(out)

    expected = abs(mean_s(rough_set, 4) - mean_s(smooth_set, 4))
    assert rs(rough_set, smooth_set, k=4) == pytest.approx(expected, rel=1e-12)
    # symmetric by construction
    assert rs(smooth_set, rough_set, k=4) == rs(rough_set, smooth_set, k=4)


def test_rs_needs_enough_points(rng):
    small = [rng.standard_normal((5, 3)) for _ in range(2)]
    with pytest.raises(InvalidInputError):
        rs(small, small, k=10)


def test_empty_sets_rejected(rng):
    clouds = [rng.standard_normal((6, 3))]
    with pytest.raises(InvalidInputError):
        mmd([], clouds)
    with pytest.raises(InvalidInputError):
        cov(clouds, [])
    with pytest.raises(InvalidInputError):
        one_nna([], [])


def test_nonfinite_clouds_rejected(rng):
    # one NaN or inf must not turn mmd into nan, or cov and one_nna into
    # plausible-looking numbers: every metric refuses the cloud
    ref, gen = make_sets(rng, n_ref=3, n_gen=3)
    for bad in (np.nan, np.inf):
        gen[1][4, 2] = bad
        for metric in (mmd, cov, one_nna, lambda r, g: rs(r, g, k=4),
                       lambda r, g: evaluate_sets(r, g, knn_k=4)):
            with pytest.raises(InvalidInputError, match="finite"):
                metric(ref, gen)
        with pytest.raises(InvalidInputError, match="finite"):
            chamfer(ref[0], gen[1])
        with pytest.raises(InvalidInputError, match="finite"):
            chamfer(gen[1], ref[0])


def test_evaluate_sets_consistent_with_parts(rng, monkeypatch):
    ref, gen = make_sets(rng, n_ref=5, n_gen=5, n_points=14)
    calls = []
    kernel = smoothdiff._kernels.chamfer
    monkeypatch.setattr(smoothdiff._kernels, "chamfer", lambda p, q: calls.append(1) or kernel(p, q))
    report = evaluate_sets(ref, gen, knn_k=4)
    # one pooled matrix: each unordered pair of the 10 clouds exactly once
    assert len(calls) == 10 * 9 // 2
    monkeypatch.undo()
    assert report.mmd == mmd(ref, gen)
    assert report.cov == cov(ref, gen)
    assert report.one_nna == one_nna(ref, gen)
    assert report.rs == pytest.approx(
        abs(report.model_smoothness - report.gt_smoothness), rel=1e-15
    )
    assert report.n_reference == 5 and report.n_generated == 5
    assert report.knn_k == 4


def test_metrics_csv_layout(rng, tmp_path):
    ref, gen = make_sets(rng, n_ref=3, n_gen=3, n_points=10)
    report = evaluate_sets(ref, gen, knn_k=3)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, report)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "value"]
    names = [r[0] for r in rows[1:]]
    assert names == [
        "mmd", "mmd_x100", "cov", "one_nna", "rs", "gt_smoothness", "model_smoothness"
    ]
    values = {r[0]: float(r[1]) for r in rows[1:]}
    assert values["mmd"] == report.mmd
    assert values["mmd_x100"] == pytest.approx(100.0 * report.mmd, rel=1e-15)
