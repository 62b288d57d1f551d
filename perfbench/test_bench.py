"""Tests of the benchmark itself: smoke runs of every workload, and checks
that fail on deliberately corrupted outputs.

Run from the repository root:  python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402

from smoothdiff.geometry import build_knn_graph, build_laplacian, smoothness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(cwd, workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 6
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "desk_pipeline", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _grid():
    return run.dyadic_grid(64, [0.125, -0.25, 0.0])


def test_knn_check_passes_program_output():
    pts = _grid()
    nbrs = build_knn_graph(pts, 8).neighbor_lists
    assert oracles.check_knn_rows(pts, 8, nbrs, np.arange(64)) == []


def test_knn_check_fails_on_swapped_tied_neighbours():
    pts = _grid()
    nbrs = np.array(build_knn_graph(pts, 8).neighbor_lists)
    d2 = oracles.sqdist(pts, pts)
    # Find a row whose 1st and 2nd neighbours are at exactly the same distance.
    row = next(i for i in range(64) if d2[i, nbrs[i, 0]] == d2[i, nbrs[i, 1]])
    nbrs[row, [0, 1]] = nbrs[row, [1, 0]]
    fails = oracles.check_knn_rows(pts, 8, nbrs, np.arange(64))
    assert len(fails) == 1 and f"row {row}" in fails[0]


def test_laplacian_check_fails_on_a_missing_edge():
    pts = _grid()
    lap = build_laplacian(build_knn_graph(pts, 8))
    edges = oracles.union_edges(oracles.knn_rows(pts, 8, np.arange(64)))
    assert oracles.check_laplacian(lap.matrix, pts, edges, smoothness(pts, lap)) == []
    broken = lap.matrix.tolil()
    i, j = edges[0]
    broken[i, j] = broken[j, i] = 0.0
    broken[i, i] -= 1.0
    broken[j, j] -= 1.0
    assert oracles.check_laplacian(broken.tocsr(), pts, edges, smoothness(pts, lap))


def test_set_metric_check_fails_on_a_wrong_tie_break():
    grid = _grid()
    far = np.random.default_rng(0).standard_normal((64, 3))
    # Pool order ref0, ref1, gen0, gen1; ref0, gen0 and gen1 are identical,
    # so every nearest-neighbour choice among them is an exact tie.
    ref, gen = [grid, far], [grid.copy(), grid.copy()]
    good = oracles.set_metrics(ref, gen, 8)
    # Lowest pooled index wins: ref0 -> gen0, ref1 -> ref0, gen0 -> ref0,
    # gen1 -> ref0, so only ref1 is labelled correctly.
    assert good["one_nna"] == 0.25
    assert oracles.check_set_metrics(good, ref, gen, 8) == []
    # Highest index winning instead would label gen0 and gen1 correctly.
    assert oracles.check_set_metrics(dict(good, one_nna=0.5), ref, gen, 8)
