"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line with its measured values.

The heavy criteria (5, 6, 10) share one real training run on 64 noisy tori
(N=256, latent 64, 400 epochs) through a session-scoped fixture; its first
50 epochs double as the short training-progress run, which is legitimate
because per-epoch RNG derives from (seed, epoch) so a truncated run is
bit-identical to a prefix of the long one.

Set SMOOTHDIFF_ACCEPT_FAST=1 to skip the three training-backed criteria
(useful while iterating on the fast ones).
"""

import filecmp
import os
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from smoothdiff import (
    DiffusionSchedule,
    GaussianMixtureScore,
    ModelConfig,
    SamplerConfig,
    ShapeSpec,
    TrainConfig,
    build_knn_graph,
    build_laplacian,
    build_models,
    constraint_gradient,
    cov,
    generate,
    generate_shape,
    latent_dsm_loss,
    mmd,
    one_nna,
    recon_dsm_loss,
    rs,
    smoothness,
    smoothness_gradient,
    train,
    tweedie_denoise,
)
from smoothdiff.cli import main as cli_main
from smoothdiff.metrics import chamfer

SCHEDULE = DiffusionSchedule()
FAST = os.environ.get("SMOOTHDIFF_ACCEPT_FAST", "") not in ("", "0")

# one trained pipeline shared by criteria 5, 6, 10
TRAIN_EPOCHS = 400
TRAIN_SEED = 0
N_POINTS = 256
LATENT_DIM = 64
SAMPLE_STEPS = 200
# per-step constraint weight; the 1000-step library default 1e-4 scaled to
# a 200-step chain for the same total effect
ALPHA = 5e-4
# guidance window: the smoothness pull uses X-hat, which is uninformative at
# large t, and its gradient carries a 1/a(t) factor that overwhelms a learned
# score early in the chain; constrain only the last part
T_CONSTRAINT = 0.3


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def torus_dataset():
    return [
        generate_shape(
            ShapeSpec(kind="torus", n_points=N_POINTS, noise_std=0.01, rng_seed=s)
        )
        for s in range(64)
    ]


@pytest.fixture(scope="session")
def trained():
    """Train the full pipeline once: 64 noisy tori, 400 epochs, ~4 min."""
    clouds = torus_dataset()
    dataset = [c.points for c in clouds]
    bundle = build_models(
        ModelConfig(
            latent_dim=LATENT_DIM,
            decoder_width=128,
            decoder_blocks=3,
            temb_dim=32,
            encoder_width=128,
            latent_width=64,
            latent_blocks=2,
        ),
        seed=TRAIN_SEED,
    )
    config = TrainConfig(
        epochs=TRAIN_EPOCHS,
        batch_size=32,
        seed=TRAIN_SEED,
        lr_constant_epochs=200,
        lr_decay_epochs=200,
    )
    start = time.time()
    reports = train(bundle, dataset, SCHEDULE, config)
    elapsed = time.time() - start
    return {
        "bundle": bundle,
        "clouds": clouds,
        "reports": reports,
        "train_seconds": elapsed,
    }


def mean_smoothness(clouds, k=30):
    vals = []
    for c in clouds:
        pts = c.points if hasattr(c, "points") else np.asarray(c)
        lap = build_laplacian(build_knn_graph(pts, k))
        vals.append(smoothness(pts, lap))
    return float(np.mean(vals))


# --------------------------------------------------------------------- 1


def test_criterion_1_tweedie_bayes_exactness():
    rng = np.random.default_rng(11)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        mu = 2.0 * rng.standard_normal(3)
        sigma0 = float(rng.uniform(0.05, 2.0))
        t = float(rng.uniform(1e-3, 1.0))
        field = GaussianMixtureScore([mu], sigma0, [1.0], SCHEDULE)
        xt = rng.standard_normal((16, 3)) + mu
        xhat = tweedie_denoise(xt, field.evaluate(xt, None, t), t, SCHEDULE)
        a, b = SCHEDULE.drift_coef(t), SCHEDULE.diffusion_std(t)
        posterior = (b * b * mu + a * sigma0**2 * xt) / (b * b + a * a * sigma0**2)
        worst = max(worst, float(np.max(np.abs(xhat - posterior))))
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-9 and elapsed < 1.0,
        f"max |tweedie - posterior mean| = {worst:.3e} over 100 triples "
        f"(< 1e-9), {elapsed:.2f}s (< 1s)",
    )


# --------------------------------------------------------------------- 2


def test_criterion_2_gradient_finite_differences():
    rng = np.random.default_rng(22)
    h = 1e-5
    start = time.time()

    def central_fd(f, x):
        g = np.zeros_like(x)
        flat_x, flat_g = x.ravel(), g.ravel()
        for i in range(flat_x.size):
            orig = flat_x[i]
            flat_x[i] = orig + h
            fp = f(x)
            flat_x[i] = orig - h
            fm = f(x)
            flat_x[i] = orig
            flat_g[i] = (fp - fm) / (2.0 * h)
        return g

    worst_smooth = 0.0
    ks = [3, 5, 8]
    for trial in range(50):
        pts = rng.standard_normal((32, 3))
        k = ks[trial % 3]
        lap = build_laplacian(build_knn_graph(pts, k))
        grad = smoothness_gradient(pts, lap)
        fd = central_fd(lambda x: smoothness(x, lap), pts.copy())
        rel = np.max(np.abs(grad - fd)) / max(1e-12, float(np.max(np.abs(fd))))
        worst_smooth = max(worst_smooth, rel)

    # same check for the exact-chain guidance gradient through a
    # differentiable analytic field
    field = GaussianMixtureScore(
        [[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]], 0.4, [0.6, 0.4], SCHEDULE
    )
    worst_chain = 0.0
    for trial in range(10):
        xt = rng.standard_normal((32, 3))
        t = float(rng.uniform(0.2, 0.9))
        xhat0 = tweedie_denoise(xt, field.evaluate(xt, None, t), t, SCHEDULE)
        lap = build_laplacian(build_knn_graph(xhat0, ks[trial % 3]))
        grad = constraint_gradient(xt, field, None, t, lap, "exact_chain", SCHEDULE)

        def s_of(y):
            xh = tweedie_denoise(y, field.evaluate(y, None, t), t, SCHEDULE)
            return smoothness(xh, lap)

        fd = central_fd(s_of, xt.copy())
        rel = np.max(np.abs(grad - fd)) / max(1e-12, float(np.max(np.abs(fd))))
        worst_chain = max(worst_chain, rel)

    elapsed = time.time() - start
    report(
        2,
        worst_smooth < 1e-4 and worst_chain < 1e-4 and elapsed < 30.0,
        f"max rel err: smoothness_gradient {worst_smooth:.3e}, exact_chain "
        f"{worst_chain:.3e} (< 1e-4), {elapsed:.1f}s (< 30s)",
    )


# --------------------------------------------------------------------- 3


def test_criterion_3_laplacian_invariants():
    rng = np.random.default_rng(33)
    worst_row = worst_eig = worst_trace = 0.0
    symmetric = True
    for _ in range(100):
        n = int(rng.integers(10, 48))
        k = int(rng.integers(1, min(9, n - 1)))
        pts = rng.standard_normal((n, 3))
        graph = build_knn_graph(pts, k)
        lap = build_laplacian(graph)
        dense = lap.matrix.toarray()
        symmetric &= bool(np.array_equal(dense, dense.T))
        worst_row = max(worst_row, float(np.max(np.abs(dense.sum(axis=1)))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(dense).min()))
        s_quad = smoothness(pts, lap)
        s_edges = sum(float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in graph.edge_set)
        worst_trace = max(
            worst_trace, abs(s_quad - s_edges) / max(1e-12, abs(s_edges))
        )
    report(
        3,
        symmetric and worst_row < 1e-12 and worst_eig >= -1e-10 and worst_trace < 1e-10,
        f"symmetric={symmetric}, max |row sum|={worst_row:.2e} (< 1e-12), "
        f"min eig={worst_eig:.2e} (>= -1e-10), trace-vs-edge rel "
        f"{worst_trace:.2e} (< 1e-10) over 100 clouds",
    )


# --------------------------------------------------------------------- 4


def test_criterion_4_analytic_mixture_sampling():
    means = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    field = GaussianMixtureScore(means, 0.3, [0.5, 0.5], SCHEDULE)
    cfg = SamplerConfig(
        n_steps=SAMPLE_STEPS, alpha=0.0, constraint_mode="off", seed=44
    )
    start = time.time()
    clouds, _ = generate(field, SCHEDULE, cfg, n_clouds=1, n_points=4000)
    elapsed = time.time() - start
    pts = clouds[0].points
    right = pts[pts[:, 0] > 0]
    left = pts[pts[:, 0] <= 0]
    occupancy = len(right) / len(pts)
    err_right = float(np.linalg.norm(right.mean(axis=0) - means[0]))
    err_left = float(np.linalg.norm(left.mean(axis=0) - means[1]))
    report(
        4,
        abs(occupancy - 0.5) <= 0.03
        and err_right <= 0.05
        and err_left <= 0.05
        and elapsed < 120.0,
        f"occupancy {occupancy:.4f} (0.5 +- 0.03), mean errors "
        f"{err_right:.4f}/{err_left:.4f} (<= 0.05), {elapsed:.1f}s (< 2 min), "
        f"4000 samples / {SAMPLE_STEPS} steps",
    )


# --------------------------------------------------------------------- 5


@pytest.mark.skipif(FAST, reason="SMOOTHDIFF_ACCEPT_FAST set")
def test_criterion_5_constraint_direction(trained):
    bundle = trained["bundle"]
    train_clouds = trained["clouds"]
    start = time.time()
    s_plain, s_guided = [], []
    plain_clouds, guided_clouds = [], []
    for seed in range(20):
        cfg_plain = SamplerConfig(
            n_steps=SAMPLE_STEPS, alpha=0.0, constraint_mode="off", knn_k=30, seed=seed
        )
        cfg_guided = SamplerConfig(
            n_steps=SAMPLE_STEPS, alpha=ALPHA, constraint_mode="frozen_score",
            knn_k=30, seed=seed, t_constraint=T_CONSTRAINT,
        )
        p, _ = generate(bundle.decoder, SCHEDULE, cfg_plain, 1, N_POINTS,
                        latent_field=bundle.latent)
        g, _ = generate(bundle.decoder, SCHEDULE, cfg_guided, 1, N_POINTS,
                        latent_field=bundle.latent)
        plain_clouds += p
        guided_clouds += g
        s_plain.append(mean_smoothness(p))
        s_guided.append(mean_smoothness(g))
    elapsed = time.time() - start + trained["train_seconds"]

    wins = sum(g < p for g, p in zip(s_guided, s_plain))
    sign_p = binomtest(wins, 20, 0.5, alternative="greater").pvalue
    rs_plain = rs(plain_clouds, train_clouds, k=30)
    rs_guided = rs(guided_clouds, train_clouds, k=30)
    mean_gap_ok = np.mean(s_guided) < np.mean(s_plain)
    report(
        5,
        mean_gap_ok and sign_p < 0.05 and rs_guided < rs_plain and elapsed < 1800.0,
        f"mean S guided {np.mean(s_guided):.2f} < plain {np.mean(s_plain):.2f}, "
        f"sign test {wins}/20 wins (p={sign_p:.2e} < 0.05), RS {rs_guided:.2f} "
        f"< {rs_plain:.2f}, total {elapsed / 60:.1f} min (< 30)",
    )


# --------------------------------------------------------------------- 6


@pytest.mark.skipif(FAST, reason="SMOOTHDIFF_ACCEPT_FAST set")
def test_criterion_6_k_sweep_direction(trained):
    bundle = trained["bundle"]
    start = time.time()
    common = dict(n_steps=SAMPLE_STEPS, seed=60)
    baseline_cfg = SamplerConfig(alpha=0.0, constraint_mode="off", knn_k=30, **common)
    baseline_clouds, _ = generate(
        bundle.decoder, SCHEDULE, baseline_cfg, 6, N_POINTS, latent_field=bundle.latent
    )
    baseline = mean_smoothness(baseline_clouds)
    values = {}
    for k in (5, 10, 15, 20, 25, 30, 35):
        cfg = SamplerConfig(
            alpha=ALPHA, constraint_mode="frozen_score", knn_k=k,
            t_constraint=T_CONSTRAINT, **common,
        )
        clouds, _ = generate(
            bundle.decoder, SCHEDULE, cfg, 6, N_POINTS, latent_field=bundle.latent
        )
        values[k] = mean_smoothness(clouds)
    elapsed = time.time() - start + trained["train_seconds"]
    all_below = all(v < baseline for v in values.values())
    detail = ", ".join(f"k={k}: {v:.1f}" for k, v in values.items())
    report(
        6,
        all_below and elapsed < 2700.0,
        f"baseline {baseline:.1f}; {detail}; all below baseline={all_below}, "
        f"total {elapsed / 60:.1f} min (< 45)",
    )


# --------------------------------------------------------------------- 7


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(77)
    distinct = [rng.standard_normal((20, 3)) + i for i in range(6)]
    self_ok = mmd(distinct, distinct) == 0.0 and cov(distinct, distinct) == 1.0

    ref = [rng.standard_normal((16, 3)) for _ in range(8)]
    gen = [rng.standard_normal((16, 3)) * 1.1 for _ in range(8)]
    d = np.array([[chamfer(r, g) for g in gen] for r in ref])
    mmd_oracle = float(np.mean(d.min(axis=1)))
    cov_oracle = len({int(np.argmin(d[:, j])) for j in range(8)}) / 8.0
    pool = ref + gen
    labels = [0] * 8 + [1] * 8
    hits = 0
    for i in range(16):
        dists = [chamfer(pool[i], pool[j]) if j != i else np.inf for j in range(16)]
        hits += labels[int(np.argmin(dists))] == labels[i]
    nna_oracle = hits / 16.0

    def oracle_mean_s(clouds, k):
        vals = [smoothness(c, build_laplacian(build_knn_graph(c, k))) for c in clouds]
        return sum(vals) / len(vals)

    rs_oracle = abs(oracle_mean_s(gen, 5) - oracle_mean_s(ref, 5))
    exact_ok = (
        mmd(ref, gen) == mmd_oracle
        and cov(ref, gen) == cov_oracle
        and one_nna(ref, gen) == nna_oracle
        and rs(gen, ref, k=5) == rs_oracle
    )

    # two iid samples of the same family should be indistinguishable
    in_band = 0
    nnas = []
    for seed in range(10):
        gen2 = np.random.default_rng(1000 + seed)
        fam_a = [gen2.standard_normal((24, 3)) for _ in range(50)]
        fam_b = [gen2.standard_normal((24, 3)) for _ in range(50)]
        val = one_nna(fam_a, fam_b)
        nnas.append(val)
        in_band += 0.35 <= val <= 0.65
    report(
        7,
        self_ok and exact_ok and in_band >= 8,
        f"self-metrics ok={self_ok}, 8x8 oracles exact={exact_ok}, 1-NNA in "
        f"[0.35, 0.65] for {in_band}/10 seeds (>= 8); values "
        f"{[round(v, 2) for v in nnas]}",
    )


# --------------------------------------------------------------------- 8


def test_criterion_8_dsm_loss_zeroing():
    rng = np.random.default_rng(88)

    class CloudOracle:
        def __init__(self, x0):
            self.x0 = x0

        def evaluate(self, xt, z, t):
            return SCHEDULE.conditional_score_target(self.x0, xt, t)

    class LatentOracle:
        def __init__(self, z0):
            self.z0 = z0

        def evaluate(self, zt, z, t):
            return SCHEDULE.conditional_score_target(self.z0, zt, t)

    worst = 0.0
    for _ in range(1000):
        x0 = rng.standard_normal((8, 3))
        z0 = rng.standard_normal(6)
        t = float(rng.uniform(1e-3, 1.0))
        lx = recon_dsm_loss(
            CloudOracle(x0), x0, None, t, rng.standard_normal((8, 3)), SCHEDULE
        )
        lz = latent_dsm_loss(LatentOracle(z0), z0, t, rng.standard_normal(6), SCHEDULE)
        worst = max(worst, abs(lx), abs(lz))
    report(
        8,
        worst <= 1e-12,
        f"max |DSM loss at exact score| = {worst:.3e} over 1000 draws (<= 1e-12)",
    )


# --------------------------------------------------------------------- 9


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "model_latent_dim = 16\n"
        "model_encoder_width = 32\n"
        "model_decoder_width = 32\n"
        "model_decoder_blocks = 2\n"
        "model_temb_dim = 8\n"
        "model_latent_width = 32\n"
        "model_latent_blocks = 2\n"
        "train_epochs = 1\n"
        "train_batch_size = 4\n"
        "train_log_every = 0\n"
        "shape_n_clouds = 8\n"
        "shape_n_points = 64\n"
        "shape_noise_std = 0.01\n"
        "sample_n_steps = 40\n"
        "sample_n_clouds = 2\n"
        "sample_n_points = 64\n"
        "eval_knn_k = 8\n"
    )
    # both train runs read the same data dir so manifests record the same
    # provenance; the synth dirs themselves are compared first
    shared_data = tmp_path / "one" / "synth"
    outputs = {}
    for run in ("one", "two"):
        base = tmp_path / run
        synth, train_dir = base / "synth", base / "train"
        sample, metrics = base / "sample", base / "metrics.csv"
        assert cli_main(["synth", "--config", str(cfg), "--out", str(synth),
                         "--seed", "3"]) == 0
        assert cli_main(["train", "--config", str(cfg), "--data", str(shared_data),
                         "--out", str(train_dir), "--seed", "3"]) == 0
        assert cli_main(["sample", "--config", str(cfg), "--checkpoint",
                         str(train_dir / "model.ckpt"), "--out", str(sample),
                         "--seed", "3"]) == 0
        assert cli_main(["eval", "--config", str(cfg), "--reference",
                         str(shared_data), "--generated", str(sample),
                         "--out", str(metrics)]) == 0
        outputs[run] = (synth, train_dir, sample, metrics)

    identical = []
    for a, b in zip(outputs["one"], outputs["two"]):
        if os.path.isdir(a):
            names = sorted(os.listdir(a))
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            identical.append(not mismatch and not errors and names == sorted(os.listdir(b)))
        else:
            identical.append(filecmp.cmp(a, b, shallow=False))
    report(
        9,
        all(identical),
        "synth/train/sample/eval bit-identical across two runs: "
        f"{dict(zip(['synth', 'train', 'sample', 'eval'], identical))}",
    )


# -------------------------------------------------------------------- 10


@pytest.mark.skipif(FAST, reason="SMOOTHDIFF_ACCEPT_FAST set")
def test_criterion_10_training_progress(trained):
    reports = trained["reports"][:50]
    recon0 = reports[0].recon
    recon49 = reports[-1].recon
    reduction = 1.0 - recon49 / recon0
    curve = [
        v
        for r in trained["reports"]
        for v in (r.recon, r.latent, r.entropy, r.total)
    ]
    finite = bool(np.isfinite(curve).all())
    report(
        10,
        reduction >= 0.5 and finite,
        f"recon epoch 0 {recon0:.3f} -> epoch 49 {recon49:.3f} "
        f"({reduction * 100:.1f}% reduction, >= 50%), loss curve finite={finite} "
        f"over {len(trained['reports'])} epochs",
    )
