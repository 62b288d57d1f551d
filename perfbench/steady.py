"""Steadiness of the benchmark on one commit: two sets of runs, compared.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads paper_pipeline --runs 5

For each workload, runs perfbench/run.py --trace 0 for BENCHMARK.json's
run_seconds once per seed, in two sets (set 1 takes seeds 1..runs, set 2 the
next runs seeds), and prints for every end-to-end metric each set's median
and quartiles, the spread (q3 - q1) / median, and whether the sets agree
within the bound in BENCHMARK.json: every spread within the bound, the two
medians apart by no more than the bound in either direction, and the same
share of failed operations. A verdict is marked when a spread is not below a
third of its bound. Runs whose machine or library records differ (kernel
backend, BLAS, thread counts, CPU) are flagged as not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMPARABLE = ("kernel_backend", "blas", "blas_threads", "nproc", "cpu", "python", "numpy", "scipy")
SETS = 2


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def apart_by(first, second):
    """Share of the first median by which the second differs, either way."""
    return abs(second - first) / first


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to take quartiles")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report, all_agree = {}, True
    for workload in args.workloads.split(","):
        sets, envs = [], []
        for k in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                start = time.time()
                env, result = run_once(workload, seed, bench["run_seconds"])
                envs.append(env)
                runs.append(result)
                print(f"{workload} set {k + 1} seed {seed}: {time.time() - start:.0f} s, "
                      f"correct={result['correct']}", file=sys.stderr)
            sets.append(runs)
        comparable = all({key: e[key] for key in COMPARABLE} ==
                         {key: envs[0][key] for key in COMPARABLE} for e in envs)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        rows = {}
        print(f"\n== {workload}" + ("" if comparable else "  ** NOT COMPARABLE: runs differ in "
                                     "backend, BLAS, threads or machine **"))
        print(f"{'metric':<28}" + "".join(f"{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}"
                                          for _ in sets) + f"{'bound':>7}  verdict")
        for name, meta in metrics.items():
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            ok = (all(s["spread"] <= meta["bound"] for s in stats)
                  and apart_by(stats[0]["median"], stats[1]["median"]) <= meta["bound"])
            tight = all(s["spread"] < meta["bound"] / 3 for s in stats)
            verdict = ("agree" if ok else "DISAGREE") + ("" if tight else " (spread >= bound/3)")
            all_agree &= ok
            rows[name] = {"sets": stats, "bound": meta["bound"], "agree": ok}
            print(f"{name:<28}" + "".join(
                f"{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}{s['spread']:>8.3f}"
                for s in stats) + f"{meta['bound']:>7}  {verdict}")
        same_share = len({frozenset(s) for s in shares}) == 1 and all(len(s) == 1 for s in shares)
        all_agree &= same_share and comparable
        print(f"failed share per set: {[sorted(s) for s in shares]}"
              f" -> {'same' if same_share else 'DIFFERENT'}")
        report[workload] = {"metrics": rows, "failed_share_same": same_share,
                            "comparable": comparable, "env": envs[0]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{int(time.time())}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
