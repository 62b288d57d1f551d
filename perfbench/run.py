"""smoothdiff benchmark: one workload per process, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and defined in WORKLOADS below. A run
builds its inputs from --seed, then repeats whole rounds of the same CLI
chain (synth, train, sample off/frozen/exact, eval) through
``smoothdiff.cli.main`` in this process until --seconds would be exceeded.
Set-up (a cold import in a fresh interpreter plus the inputs) is timed
SETUP_SAMPLES times: once before the first round and again between rounds as
each repeat falls due; setup_s is the median.
The first round's outputs are checked against the independent oracles in
oracles.py; every later round must reproduce them bit for bit. With
--trace 0 the last stdout line holds the end-to-end metrics (medians over
rounds); with --trace 1 rounds alternate untraced and traced, and it holds
the per-layer metrics of the traced rounds plus the tracing overhead.
--size smoke shrinks every workload so the whole benchmark and every check
finish in seconds. The process exits nonzero if any check fails or the
program cannot be imported.
"""

import os

# Fixed before NumPy loads: BLAS may use one thread, within any nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sparse  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 8  # set-ups per run, spread evenly over its --seconds
EVAL_KNN_K = 30
GUIDE_ALPHA = 5e-4
GUIDE_KNN_K = 30
BETA = (0.1, 20.0)
MODES = ("off", "frozen", "exact")
TINY_NETS = dict(latent_dim=8, decoder_width=32, decoder_blocks=2, temb_dim=8,
                 encoder_width=32, latent_width=32, latent_blocks=1)

# Why each workload exists is recorded in BENCHMARK.json; sizes live here.
WORKLOADS = {
    "desk_pipeline": dict(
        points=256, train_clouds=8, batch=4, nets=None, sample_clouds=2, steps=20,
        t_constraint=0.3, sets=None),
    "paper_pipeline": dict(
        points=2048, train_clouds=2, batch=2, nets=None, sample_clouds=1, steps=6,
        t_constraint=0.4, sets=None),
    "eval_sets": dict(
        points=128, train_clouds=4, batch=4, nets=None, sample_clouds=1, steps=12,
        t_constraint=0.3, sets=(10, 10, 256)),
}
SMOKE = dict(points=48, train_clouds=2, batch=2, nets=TINY_NETS, sample_clouds=1, steps=4,
             t_constraint=0.5)
SMOKE_SETS = (6, 6, 48)


def workload_spec(name, size):
    spec = dict(WORKLOADS[name])
    if size == "smoke":
        spec.update(SMOKE)
        if spec["sets"] is not None:
            spec["sets"] = SMOKE_SETS
    return spec


# ---------------------------------------------------------------- inputs

def dyadic_grid(n, offset):
    """Planar grid with spacing 1/16 and a dyadic offset: distance ties are exact."""
    side = int(np.ceil(np.sqrt(n)))
    axis = (np.arange(side) - side // 2) / 16.0
    gx, gy = np.meshgrid(axis + offset[0], axis + offset[1], indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.full(side * side, offset[2])], axis=1)[:n]


def synthetic_cloud(kind, n, rng):
    """One non-grid evaluation-set cloud, drawn without smoothdiff."""
    if kind == "sphere":
        v = rng.standard_normal((n, 3))
        pts = rng.uniform(0.3, 0.6) * v / np.linalg.norm(v, axis=1, keepdims=True)
    elif kind == "torus":
        u, w = rng.uniform(0.0, 2.0 * np.pi, (2, n))
        big, small = rng.uniform(0.35, 0.55), rng.uniform(0.08, 0.2)
        ring = big + small * np.cos(w)
        pts = np.stack([ring * np.cos(u), ring * np.sin(u), small * np.sin(w)], axis=1)
    else:  # helix
        s = np.linspace(0.0, 1.0, n)
        theta = 2.0 * np.pi * rng.uniform(2.0, 4.0) * s
        pts = np.stack([0.5 * np.cos(theta), 0.5 * np.sin(theta), s - 0.5], axis=1)
    return pts + rng.uniform(0.0, 0.02) * rng.standard_normal((n, 3))


def make_inputs(spec, seed, directory):
    """Everything the program receives, derived from the seed alone."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    inp = {
        "major": float(rng.uniform(0.4, 0.6)),
        "minor": float(rng.uniform(0.1, 0.2)),
        "synth_seed": int(rng.integers(0, 2 ** 31)),
        "train_seed": int(rng.integers(0, 2 ** 31)),
        "sample_seed": int(rng.integers(0, 2 ** 31)),
        "check_seed": int(rng.integers(0, 2 ** 31)),
        "grid_offset": [float(v) for v in rng.integers(-16, 16, 3) / 64.0],
    }
    lines = [
        f"shape_major_radius = {inp['major']!r}",
        f"shape_minor_radius = {inp['minor']!r}",
        f"beta_min = {BETA[0]!r}",
        f"beta_max = {BETA[1]!r}",
        f"train_batch_size = {spec['batch']}",
        "train_log_every = 0",
        f"eval_knn_k = {EVAL_KNN_K}",
    ]
    for key, value in (spec["nets"] or {}).items():
        lines.append(f"model_{key} = {value}")
    inp["config"] = os.path.join(directory, "run.cfg")
    with open(inp["config"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if spec["sets"] is not None:
        n_ref, n_gen, n = spec["sets"]
        grid = dyadic_grid(n, inp["grid_offset"])
        kinds = ("plane_grid", "sphere", "torus", "helix")
        for label, count in (("ref", n_ref), ("gen", n_gen)):
            os.makedirs(os.path.join(directory, label), exist_ok=True)
            for i in range(count):
                kind = kinds[i % len(kinds)]
                if kind == "plane_grid":
                    # Reference grid j sits at height 2j/64 and generated grid
                    # j at (2j+1)/64: each generated grid is exactly as far
                    # from two reference grids, so the argmin tie rules decide.
                    lift = (2 * (i // len(kinds)) + (label == "gen")) / 64.0
                    cloud = grid + np.array([0.0, 0.0, lift])
                else:
                    cloud = synthetic_cloud(kind, n, rng)
                oracles.write_xyz(os.path.join(directory, label, f"cloud_{i:04d}.xyz"), cloud)
    return inp


def import_seconds():
    """Wall time of a cold `import smoothdiff.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import smoothdiff.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"cannot import smoothdiff from {SRC}:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def set_up(spec, seed, directory):
    """One set-up: a cold import plus the inputs. Returns (inputs, seconds)."""
    imported = import_seconds()
    start = time.perf_counter()
    inp = make_inputs(spec, seed, directory)
    return inp, imported + time.perf_counter() - start


def set_up_again(spec, seed, work):
    """A repeat set-up for timing only; its inputs equal the first ones and are dropped."""
    directory = os.path.join(work, "inputs-repeat")
    try:
        return set_up(spec, seed, directory)[1]
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------- one round

class Chain:
    """Runs the CLI chain of one workload and times each stage."""

    def __init__(self, sd, spec, inp, inputs_dir):
        self.sd, self.spec, self.inp, self.inputs_dir = sd, spec, inp, inputs_dir
        self.generate_s = []
        original = sd.cli.generate

        def timed_generate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.generate_s.append(time.perf_counter() - start)

        sd.cli.generate = timed_generate

    def stages(self, rdir):
        spec, inp = self.spec, self.inp
        n, cfg = str(spec["points"]), ["--config", inp["config"]]
        ckpt = os.path.join(rdir, "run", "model.ckpt")
        out = [
            ("synth", ["synth", *cfg, "--kind", "torus", "--count", str(spec["train_clouds"]),
                       "--points", n, "--seed", str(inp["synth_seed"]),
                       "--out", os.path.join(rdir, "data")]),
            ("train", ["train", *cfg, "--data", os.path.join(rdir, "data"), "--epochs", "1",
                       "--seed", str(inp["train_seed"]), "--out", os.path.join(rdir, "run")]),
        ]
        for mode in MODES:
            guided = [] if mode == "off" else [
                "--alpha", repr(GUIDE_ALPHA), "--t-constraint", repr(spec["t_constraint"]),
                "--knn-k", str(GUIDE_KNN_K)]
            out.append((f"sample_{mode}", [
                "sample", *cfg, "--checkpoint", ckpt, "--count", str(spec["sample_clouds"]),
                "--points", n, "--steps", str(spec["steps"]), "--mode", mode,
                "--seed", str(inp["sample_seed"]), "--out", os.path.join(rdir, f"gen_{mode}"),
                *guided]))
        ref, gen = self.eval_dirs(rdir)
        out.append(("eval", ["eval", *cfg, "--reference", ref, "--generated", gen,
                             "--out", os.path.join(rdir, "metrics.csv")]))
        return out

    def eval_dirs(self, rdir):
        if self.spec["sets"] is not None:
            return os.path.join(self.inputs_dir, "ref"), os.path.join(self.inputs_dir, "gen")
        return os.path.join(rdir, "data"), os.path.join(rdir, "gen_frozen")

    def run(self, rdir):
        """One round. Returns (stage seconds, generate seconds, failed stage count)."""
        times, gen_times, failed = {}, {}, 0
        for name, argv in self.stages(rdir):
            if failed:
                failed += 1
                continue
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.sd.cli.main(argv)
            except Exception:  # a failing stage is counted, not fatal
                traceback.print_exc()
                rc = -1
            times[name] = time.perf_counter() - start
            if rc != 0:
                print(f"stage {name} failed with exit code {rc}", file=sys.stderr)
                failed += 1
            elif name.startswith("sample_"):
                gen_times[name[len("sample_"):]] = self.generate_s[-1]
        return times, gen_times, failed


# ---------------------------------------------------------------- checks

def read_dir(directory):
    names = sorted(n for n in os.listdir(directory) if n.endswith(".xyz"))
    return [oracles.read_xyz(os.path.join(directory, n)) for n in names]


def read_metrics_csv(path):
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    return {name: float(value) for name, value in rows}


def laplacian_from_edges(edges, n):
    w = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    w = (w + w.T).tocsr()
    return (sparse.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()


def check_knn_and_laplacian(sd, pts, k, label):
    expected = oracles.knn_rows(pts, k, np.arange(len(pts)))
    graph = sd.geometry.build_knn_graph(pts, k)
    fails = oracles.check_knn_rows(pts, k, graph.neighbor_lists, np.arange(len(pts)))
    edges = oracles.union_edges(expected)
    if not np.array_equal(graph.edge_set, edges):
        fails.append("knn: edge set differs from the union of brute-force lists")
    lap = sd.geometry.build_laplacian(graph)
    fails += oracles.check_laplacian(lap.matrix, pts, edges, sd.geometry.smoothness(pts, lap))
    return [f"{label}: {f}" for f in fails]


def check_kernel_agreement(sd, pts, other, k):
    """Active and NumPy reference kernels against the oracle.

    The active k-NN kernel is already checked through build_knn_graph; the
    reference one is checked too when a compiled backend replaces it.
    """
    kernels, fails = sd._kernels, []
    if kernels.knn_neighbors is not kernels._reference.knn_neighbors:
        got = kernels._reference.knn_neighbors(pts, k)
        fails += [f"kernels (reference): {f}" for f in
                  oracles.check_knn_rows(pts, k, got, np.arange(len(pts)))]
    want = oracles.chamfer(pts, other)
    for impl in {kernels.chamfer, kernels._reference.chamfer}:
        got = impl(pts, other)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            fails.append(f"kernels ({impl.__module__}): chamfer {got!r}, oracle {want!r}")
    return fails


def check_gradients(sd, ckpt, rng):
    """Finite differences for decoder.backward and the exact-chain gradient."""
    bundle, _, _ = sd.checkpoint.load_checkpoint(ckpt)
    trained = bundle.decoder
    # Trained output weights are tiny after one epoch; perturb every
    # parameter so each gradient term is large enough to be checked.
    dec = sd.score_models.MlpScoreNet(
        trained.latent_dim, width=trained.width, n_blocks=trained.n_blocks,
        temb_dim=trained.temb_dim,
        params=trained.params + 0.1 * rng.standard_normal(trained.params.size))
    xt = rng.standard_normal((16, 3))
    z = rng.standard_normal(dec.latent_dim)
    up = rng.standard_normal((16, 3))
    _, cache = dec.forward(xt, z, 0.37)
    grad = dec.backward(cache, up)[0]
    fails = []
    base = dec.params.copy()

    def loss(p):
        dec.params[:] = p
        return float(np.sum(up * dec.forward(xt, z, 0.37)[0]))

    # One coordinate in every parameter slot (weights and biases of each layer).
    for off, shape in dec.layout.slots.values():
        i = off + int(rng.integers(int(np.prod(shape))))
        e = np.zeros_like(base)
        e[i] = 1.0
        num = oracles.central_difference(loss, base, e, 1e-5)
        dec.params[:] = base
        fails += oracles.check_fd(f"decoder.backward[{i}]", float(grad[i]), num, 1e-6)

    t, n, k = 0.3, 48, 8
    a, b = oracles.vp_coefs(*BETA, t)
    x = 0.5 * rng.standard_normal((n, 3))

    def xhat(y):
        return (y + b * b * dec.evaluate(y, z, t)) / a

    edges = oracles.union_edges(oracles.knn_rows(xhat(x), k, np.arange(n)))
    lap = sd.geometry.LaplacianMatrix(dimension=n, matrix=laplacian_from_edges(edges, n))
    schedule = sd.sde.DiffusionSchedule(beta_min=BETA[0], beta_max=BETA[1])
    g = sd.sampler.constraint_gradient(x, dec, z, t, lap, "exact_chain", schedule)
    v = rng.standard_normal((n, 3))
    num = oracles.central_difference(lambda y: oracles.edge_smoothness(xhat(y), edges), x, v, 1e-6)
    fails += oracles.check_fd("exact_chain gradient", float(np.sum(g * v)), num, 1e-6)
    return fails


def check_round(sd, spec, inp, chain, rdir):
    """Independent checks of one round's outputs; returns failure messages."""
    rng = np.random.default_rng(inp["check_seed"])
    n, k = spec["points"], GUIDE_KNN_K
    fails = []
    data = read_dir(os.path.join(rdir, "data"))
    if len(data) != spec["train_clouds"] or any(c.shape != (n, 3) for c in data):
        fails.append(f"synth: expected {spec['train_clouds']} clouds of {n} points")
    worst = max(oracles.torus_residual(c, inp["major"], inp["minor"]) for c in data)
    if worst > 1e-10:
        fails.append(f"synth: torus residual {worst!r} exceeds 1e-10")
    samples = {m: read_dir(os.path.join(rdir, f"gen_{m}")) for m in MODES}
    for mode, clouds in samples.items():
        if len(clouds) != spec["sample_clouds"] or any(
                c.shape != (n, 3) or not np.isfinite(c).all() for c in clouds):
            fails.append(f"sample {mode}: expected {spec['sample_clouds']} finite ({n}, 3) clouds")
    if not fails and np.array_equal(samples["off"][0], samples["frozen"][0]):
        fails.append("sample: guidance left the frozen chain equal to the unguided one")
    if fails:
        return fails
    fails += check_knn_and_laplacian(sd, samples["frozen"][0], k, "frozen sample")
    grid_n = spec["sets"][2] if spec["sets"] else n
    grid = dyadic_grid(grid_n, inp["grid_offset"])
    fails += check_knn_and_laplacian(sd, grid, k, "plane grid")
    fails += check_kernel_agreement(sd, grid, data[0][: grid_n], k)
    ref_dir, gen_dir = chain.eval_dirs(rdir)
    fails += oracles.check_set_metrics(
        read_metrics_csv(os.path.join(rdir, "metrics.csv")),
        read_dir(ref_dir), read_dir(gen_dir), EVAL_KNN_K)
    fails += check_gradients(sd, os.path.join(rdir, "run", "model.ckpt"), rng)
    return fails


def output_digest(rdir):
    """Hash of every output file except manifests, which name the round's paths."""
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(rdir)):
        for name in sorted(files):
            if name != "manifest.json":
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, rdir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------- reporting

def environment(sd, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": sd.backend_name(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or the configured value if it cannot be asked."""
    import ctypes
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def end_to_end(spec, rounds, setup, peak_rss_mb):
    med = statistics.median
    steps = spec["sample_clouds"] * spec["steps"]
    out = {
        "setup_s": (med(setup), "s"),
        "pipeline_s": (med(sum(r["stages"].values()) for r in rounds), "s"),
        "train_clouds_per_s": (med(spec["train_clouds"] / r["stages"]["train"] for r in rounds),
                               "clouds/s"),
    }
    for mode in MODES:
        out[f"sample_{mode}_steps_per_s"] = (
            med(steps / r["generate"][mode] for r in rounds), "steps/s")
    out["eval_s"] = (med(r["stages"]["eval"] for r in rounds), "s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def per_layer(tracer, traced, plain):
    per_round = [tracing.layer_metrics(tracer.spans, r["run_id"]) for r in traced]
    out = {}
    for name in per_round[0]:
        unit = ("GFLOP/s" if name.endswith("gflop_per_s") else "s" if name.endswith("_s")
                else "B" if name.endswith("bytes") else "calls/pair"
                if name.endswith("per_pair") else "count")
        out[name] = (statistics.median(m[name] for m in per_round), unit)
    wall = [statistics.median(sum(r["stages"].values()) for r in group) for group in (traced, plain)]
    out["bench.tracing_overhead_pct"] = (100.0 * (wall[0] / wall[1] - 1.0), "%")
    return out


# ---------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smoothdiff", "__init__.py")):
        print(f"error: no smoothdiff sources under {SRC}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.size)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        return run(args, spec, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, tag, work):
    inputs_dir = os.path.join(work, "inputs")
    inp, first = set_up(spec, args.seed, inputs_dir)
    setup = [first]
    sys.path.insert(0, SRC)
    import smoothdiff as sd
    import smoothdiff.cli  # noqa: F401  (binds sd.cli)

    chain = Chain(sd, spec, inp, inputs_dir)
    tracer = tracing.Tracer()
    rounds, fails, failed_ops, attempted = [], [], 0, 0
    digest = None
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 1
    while True:
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        rdir = os.path.join(work, f"round{r}")
        run_id = f"{tag}-round{r}"
        if traced:
            tracer.install(sd, run_id)
        try:
            stages, gen_times, failed = chain.run(rdir)
        finally:
            tracer.uninstall()
        attempted += len(chain.stages(rdir))
        failed_ops += failed
        if not failed:
            if digest is None:
                # Peak memory of setup plus one chain, before the checks allocate.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                fails += check_round(sd, spec, inp, chain, rdir)
                digest = output_digest(rdir)
            elif output_digest(rdir) != digest:
                fails.append(f"round {r}: outputs differ from the checked round's")
            rounds.append({"stages": stages, "generate": gen_times, "traced": traced,
                           "run_id": run_id})
        else:
            rounds.append({"failed": True, "traced": traced})
        shutil.rmtree(rdir, ignore_errors=True)
        # Repeat set-ups fall due evenly over the run, so that no short slow
        # spell of the machine decides their median.
        while (len(setup) < SETUP_SAMPLES and time.perf_counter() - start
               >= len(setup) * args.seconds / SETUP_SAMPLES):
            setup.append(set_up_again(spec, args.seed, work))
        # Later rounds skip the oracle checks, so the chain time predicts them.
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + sum(stages.values()) > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(set_up_again(spec, args.seed, work))

    ok_rounds = [r for r in rounds if not r.get("failed")]
    plain = [r for r in ok_rounds if not r["traced"]]
    traced_rounds = [r for r in ok_rounds if r["traced"]]
    metrics = {}
    if args.trace and traced_rounds and plain:
        metrics = per_layer(tracer, traced_rounds, plain)
        tracer.write(os.path.join(OUT, f"spans-{tag}.json"))
    elif not args.trace and plain:
        metrics = end_to_end(spec, plain, setup, peak_rss_mb)
    else:
        fails.append("no round completed")
    env = environment(sd, args)
    correct = not fails
    report = {"env": env, "setup_s": setup, "rounds": rounds, "check_failures": fails}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
