"""Reverse-time sampling: Tweedie identity, Euler steps, smoothness guidance."""

import csv
import re

import numpy as np
import pytest
from scipy.stats import kstest

from smoothdiff import (
    DiffusionSchedule,
    GaussianMixtureScore,
    InvalidInputError,
    InvalidParameterError,
    LatentScoreNet,
    MlpScoreNet,
    NumericalAbortError,
    SamplerConfig,
    ScoreField,
    UnsupportedModeError,
    build_knn_graph,
    build_laplacian,
    constraint_gradient,
    generate,
    sample_latent,
    smoothness,
    tweedie_denoise,
)

from conftest import numeric_grad

SCHEDULE = DiffusionSchedule()


class ZeroField(ScoreField):
    def evaluate(self, xt, z, t):
        return np.zeros_like(np.asarray(xt, dtype=float))


class ConstField(ScoreField):
    """Score that ignores the state; its input Jacobian is exactly zero."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def evaluate(self, xt, z, t):
        return np.broadcast_to(self.value, np.asarray(xt).shape).copy()

    def input_vjp(self, xt, z, t, upstream):
        return np.zeros_like(np.asarray(xt, dtype=float))


class HugeField(ScoreField):
    def evaluate(self, xt, z, t):
        return np.full_like(np.asarray(xt, dtype=float), 1e308)


class BlowUpAfter(ScoreField):
    """Zero score for the first `calls` evaluations, then 1e308 everywhere."""

    latent_dim = 2

    def __init__(self, calls):
        self.left = calls

    def evaluate(self, xt, z, t):
        self.left -= 1
        value = 1e308 if self.left < 0 else 0.0
        return np.full_like(np.asarray(xt, dtype=float), value)


def single_gaussian(sigma0=1.0, mu=(0.0, 0.0, 0.0)):
    return GaussianMixtureScore(
        means=np.array([mu], dtype=float),
        sigma0=sigma0,
        weights=np.array([1.0]),
        schedule=SCHEDULE,
    )


# ---------------------------------------------------------------- tweedie


def test_tweedie_matches_bayes_posterior_mean(rng):
    # independent oracle: conjugate Gaussian posterior mean for the kernel
    # xt | x0 ~ N(a x0, b^2) with prior x0 ~ N(mu, sigma0^2)
    for _ in range(25):
        mu = rng.standard_normal(3)
        sigma0 = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.05, 1.0))
        xt = rng.standard_normal((6, 3))
        field = single_gaussian(sigma0, tuple(mu))
        xhat = tweedie_denoise(xt, field.evaluate(xt, None, t), t, SCHEDULE)
        a, b = SCHEDULE.drift_coef(t), SCHEDULE.diffusion_std(t)
        posterior = (b * b * mu + a * sigma0**2 * xt) / (b * b + a * a * sigma0**2)
        assert np.max(np.abs(xhat - posterior)) < 1e-9


def test_tweedie_inverts_conditional_score(rng):
    x0 = rng.standard_normal((8, 3))
    for t in (0.1, 0.5, 0.99):
        noise = rng.standard_normal((8, 3))
        xt = SCHEDULE.perturb(x0, t, noise)
        score = SCHEDULE.conditional_score_target(x0, xt, t)
        xhat = tweedie_denoise(xt, score, t, SCHEDULE)
        assert np.max(np.abs(xhat - x0)) < 1e-10


def test_tweedie_shape_check():
    with pytest.raises(InvalidInputError):
        tweedie_denoise(np.zeros((3, 3)), np.zeros((2, 3)), 0.5, SCHEDULE)


# ------------------------------------------------------------------ steps


def test_reverse_step_zero_score_closed_form():
    # one step of generate with a zero score; the cloud's child stream gives
    # the starting state, then the step noise
    cfg = SamplerConfig(n_steps=1, alpha=0.0, constraint_mode="off", seed=8)
    clouds, _ = generate(ZeroField(), SCHEDULE, cfg, n_clouds=1, n_points=5)
    draws = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    x = draws.standard_normal((5, 3))
    noise = draws.standard_normal((5, 3))
    t, dt = 1.0, 1.0 - cfg.t_floor
    beta = SCHEDULE.beta(t)
    expected = x + 0.5 * beta * x * dt + np.sqrt(beta) * np.sqrt(dt) * noise
    assert np.allclose(clouds[0].points, expected, rtol=1e-14)


def test_reverse_chain_preserves_standard_normal_marginal():
    # with exact score of a unit Gaussian the marginal stays N(0, 1) at
    # every (a, b) since a^2 + b^2 = 1; run the chain and KS-test the result
    field = single_gaussian(sigma0=1.0)
    cfg = SamplerConfig(n_steps=100, alpha=0.0, constraint_mode="off", seed=123)
    clouds, _ = generate(field, SCHEDULE, cfg, n_clouds=4, n_points=800)
    flat = np.concatenate([c.points.ravel() for c in clouds])
    assert flat.size == 9600
    stat = kstest(flat, "norm").statistic
    assert stat < 0.02


def test_two_component_mixture_end_to_end():
    means = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    field = GaussianMixtureScore(
        means=means, sigma0=0.3, weights=np.array([0.5, 0.5]), schedule=SCHEDULE
    )
    cfg = SamplerConfig(n_steps=100, alpha=0.0, constraint_mode="off", seed=5)
    clouds, _ = generate(field, SCHEDULE, cfg, n_clouds=1, n_points=1500)
    pts = clouds[0].points
    right = pts[pts[:, 0] > 0]
    left = pts[pts[:, 0] < 0]
    assert abs(len(right) / len(pts) - 0.5) < 0.05
    assert np.max(np.abs(right.mean(axis=0) - means[0])) < 0.08
    assert np.max(np.abs(left.mean(axis=0) - means[1])) < 0.08


# ------------------------------------------------------------- constraint


def test_exact_chain_matches_fd_of_denoised_smoothness(rng):
    field = single_gaussian(sigma0=0.5, mu=(0.4, -0.2, 0.1))
    xt = rng.standard_normal((10, 3))
    t = 0.5
    xhat0 = tweedie_denoise(xt, field.evaluate(xt, None, t), t, SCHEDULE)
    lap = build_laplacian(build_knn_graph(xhat0, 3))

    grad = constraint_gradient(xt, field, None, t, lap, "exact_chain", SCHEDULE)

    def s_of_state(y):
        xhat = tweedie_denoise(y, field.evaluate(y, None, t), t, SCHEDULE)
        return smoothness(xhat, lap)

    fd = numeric_grad(s_of_state, xt.copy(), eps=1e-6)
    assert np.max(np.abs(grad - fd)) < 1e-5

    # the public route through a learned net (evaluate_cached, then
    # input_vjp) stays float64: a float32 score or VJP misses this central
    # difference by about 1e-8 of its largest entry, the float64 route by
    # about 1e-9
    net = MlpScoreNet(6, width=16, n_blocks=2, temb_dim=8)
    net.params[:] = 0.1 * rng.standard_normal(net.n_params)
    z = rng.standard_normal(6)
    xhat0 = tweedie_denoise(xt, net.evaluate(xt, z, t), t, SCHEDULE)
    lap = build_laplacian(build_knn_graph(xhat0, 3))
    grad = constraint_gradient(xt, net, z, t, lap, "exact_chain", SCHEDULE)
    fd = numeric_grad(
        lambda y: smoothness(tweedie_denoise(y, net.evaluate(y, z, t), t, SCHEDULE), lap),
        xt.copy(),
        eps=1e-6,
    )
    assert np.max(np.abs(grad - fd)) <= 3e-9 * np.max(np.abs(fd))


def test_frozen_equals_exact_for_state_independent_field(rng):
    field = ConstField(np.array([0.2, -0.3, 0.15]))
    xt = rng.standard_normal((8, 3))
    t = 0.35
    xhat = tweedie_denoise(xt, field.evaluate(xt, None, t), t, SCHEDULE)
    lap = build_laplacian(build_knn_graph(xhat, 2))
    frozen = constraint_gradient(xt, field, None, t, lap, "frozen_score", SCHEDULE)
    exact = constraint_gradient(xt, field, None, t, lap, "exact_chain", SCHEDULE)
    assert np.allclose(frozen, exact, rtol=1e-14)
    fd = numeric_grad(
        lambda y: smoothness(tweedie_denoise(y, field.evaluate(y, None, t), t, SCHEDULE), lap),
        xt.copy(),
        eps=1e-6,
    )
    assert np.max(np.abs(frozen - fd)) < 1e-6


def test_exact_generate_runs_four_argument_field():
    # a user field whose input_vjp takes no cache still runs exact guidance;
    # its input Jacobian is zero, so exact equals frozen bit for bit
    field = ConstField(np.array([0.2, -0.3, 0.15]))
    clouds = {
        mode: generate(field, SCHEDULE,
                       SamplerConfig(n_steps=8, alpha=0.05, knn_k=3, seed=4, constraint_mode=mode),
                       n_clouds=2, n_points=10)[0]
        for mode in ("exact_chain", "frozen_score")
    }
    for a, b in zip(clouds["exact_chain"], clouds["frozen_score"]):
        assert np.array_equal(a.points, b.points)


def test_exact_chain_reuses_the_step_forward(monkeypatch, tiny_bundle):
    # one decoder forward per step in every mode, each on the chain's float32
    # weights; a guided exact step keeps that forward's cache and hands it to
    # exactly one input_vjp, before the next step's forward
    events = []
    forward, input_vjp = MlpScoreNet.forward, MlpScoreNet.input_vjp

    def counted_forward(net, *args, **kwargs):
        out = forward(net, *args, **kwargs)
        events.append(("forward", kwargs.get("keep", True), kwargs.get("params"), out[1]))
        return out

    def counted_input_vjp(net, *args, **kwargs):
        events.append(("input_vjp", None, None, kwargs.get("cache")))
        return input_vjp(net, *args, **kwargs)

    monkeypatch.setattr(MlpScoreNet, "forward", counted_forward)
    monkeypatch.setattr(MlpScoreNet, "input_vjp", counted_input_vjp)
    z = np.random.default_rng(0).standard_normal((1, 6))
    for mode in ("off", "frozen_score", "exact_chain"):
        events.clear()
        config = SamplerConfig(n_steps=10, alpha=1e-3, knn_k=4, constraint_mode=mode,
                               t_constraint=0.5, seed=2)
        generate(tiny_bundle.decoder, SCHEDULE, config, n_clouds=1, n_points=12, latents=z)
        dt = (1.0 - config.t_floor) / config.n_steps
        guided = sum(1.0 - k * dt <= config.t_constraint for k in range(config.n_steps))
        assert 0 < guided < config.n_steps
        forwards = [e for e in events if e[0] == "forward"]
        assert len(forwards) == config.n_steps, mode
        for _, keep, weights, cache in forwards:
            assert weights is not None and weights.dtype == np.float32, mode
            assert (cache is None) == (not keep), mode
        kept = [e for e in events if e[0] == "forward" and e[1]]
        assert len(kept) == (guided if mode == "exact_chain" else 0), mode
        for i, (_, keep, _, cache) in enumerate(events):
            if keep:
                # the VJP follows its own step's forward and reads its cache
                assert events[i + 1][0] == "input_vjp" and events[i + 1][3] is cache
                assert cache[-1] is events[i][2], mode
        assert sum(kind == "input_vjp" for kind, *_ in events) == len(kept), mode


def test_chain_reads_in_place_weight_updates(tiny_bundle):
    # Adam updates params in place; the chain's float32 weights are cast per
    # chain, so the next generate must see the update, both on the cache-free
    # steps and on the guided exact steps
    dec, lat = tiny_bundle.decoder, tiny_bundle.latent
    gen = np.random.default_rng(8)
    for config in (SamplerConfig(n_steps=8, alpha=0.0, constraint_mode="off", seed=4),
                   SamplerConfig(n_steps=8, alpha=0.05, knn_k=4, t_constraint=0.6,
                                 constraint_mode="exact_chain", seed=4)):

        def sample(d, l):
            return generate(d, SCHEDULE, config, 2, 10, latent_field=l)[0][1].points

        before = sample(dec, lat)
        for net in (dec, lat):
            net.params -= 0.05 * gen.standard_normal(net.n_params)
        after = sample(dec, lat)
        fresh = sample(MlpScoreNet(dec.latent_dim, width=dec.width, n_blocks=dec.n_blocks,
                                   temb_dim=dec.temb_dim, params=dec.params),
                       LatentScoreNet(lat.latent_dim, width=lat.width, n_blocks=lat.n_blocks,
                                      temb_dim=lat.temb_dim, params=lat.params))
        assert not np.array_equal(after, before), config.constraint_mode
        assert np.array_equal(after, fresh), config.constraint_mode


def test_frozen_two_point_hand_case():
    # zero score: Xhat = x / a, so the gradient is 2 L x / a^2 exactly
    xt = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    t = 0.4
    lap = build_laplacian(build_knn_graph(xt, 1))
    grad = constraint_gradient(xt, ZeroField(), None, t, lap, "frozen_score", SCHEDULE)
    a = SCHEDULE.drift_coef(t)
    expected = 2.0 * (lap.matrix @ (xt / a)) / a
    assert np.allclose(grad, expected, rtol=1e-14)


def test_constraint_off_returns_zeros(rng):
    xt = rng.standard_normal((6, 3))
    lap = build_laplacian(build_knn_graph(xt, 2))
    out = constraint_gradient(xt, ZeroField(), None, 0.5, lap, "off", SCHEDULE)
    assert np.array_equal(out, np.zeros_like(xt))
    with pytest.raises(InvalidParameterError):
        constraint_gradient(xt, ZeroField(), None, 0.5, lap, "slow", SCHEDULE)


def test_exact_chain_requires_differentiable_field(rng):
    xt = rng.standard_normal((6, 3))
    lap = build_laplacian(build_knn_graph(xt, 2))
    with pytest.raises(UnsupportedModeError):
        constraint_gradient(xt, ZeroField(), None, 0.5, lap, "exact_chain", SCHEDULE)


def test_pure_constraint_move_reduces_denoised_smoothness(rng):
    # moving against the frozen-score gradient must lower S(Xhat) for a
    # small enough alpha; with a zero field Xhat = x / a so this is exact
    x = rng.standard_normal((20, 3))
    t = 0.3
    a = SCHEDULE.drift_coef(t)
    lap = build_laplacian(build_knn_graph(x / a, 4))
    grad = constraint_gradient(x, ZeroField(), None, t, lap, "frozen_score", SCHEDULE)
    s0 = smoothness(x / a, lap)
    moved = x - 1e-4 * grad
    assert smoothness(moved / a, lap) < s0


def test_generate_alpha_zero_bitwise_equal_to_off():
    field = single_gaussian(sigma0=0.4)
    common = dict(n_steps=20, knn_k=4, seed=9)
    off = SamplerConfig(alpha=0.7, constraint_mode="off", **common)
    zero = SamplerConfig(alpha=0.0, constraint_mode="frozen_score", **common)
    c1, _ = generate(field, SCHEDULE, off, n_clouds=2, n_points=16)
    c2, _ = generate(field, SCHEDULE, zero, n_clouds=2, n_points=16)
    for a, b in zip(c1, c2):
        assert np.array_equal(a.points, b.points)


def test_constraint_inactive_above_t_constraint():
    # threshold below every chain time: guidance never fires, so the output
    # is bitwise the unconstrained chain even though alpha is large
    field = single_gaussian(sigma0=0.4)
    active_never = SamplerConfig(
        n_steps=10, alpha=5.0, constraint_mode="frozen_score", knn_k=3,
        t_constraint=1e-4, seed=3,
    )
    off = SamplerConfig(n_steps=10, alpha=0.0, constraint_mode="off", knn_k=3, seed=3)
    c1, _ = generate(field, SCHEDULE, active_never, n_clouds=1, n_points=8)
    c2, _ = generate(field, SCHEDULE, off, n_clouds=1, n_points=8)
    assert np.array_equal(c1[0].points, c2[0].points)


def test_guided_chain_lowers_final_smoothness():
    field = single_gaussian(sigma0=0.5)
    base = dict(n_steps=60, knn_k=6, seed=21, record_trajectory=True)
    cfg_off = SamplerConfig(alpha=0.0, constraint_mode="off", **base)
    cfg_on = SamplerConfig(alpha=2e-3, constraint_mode="frozen_score", **base)
    off_clouds, off_traj = generate(field, SCHEDULE, cfg_off, n_clouds=3, n_points=48)
    on_clouds, on_traj = generate(field, SCHEDULE, cfg_on, n_clouds=3, n_points=48)
    s_off = np.mean([tr.smoothness[-1] for tr in off_traj])
    s_on = np.mean([tr.smoothness[-1] for tr in on_traj])
    assert s_on < s_off


# ------------------------------------------------------------- machinery


def test_sampler_config_validation():
    with pytest.raises(InvalidParameterError):
        SamplerConfig(n_steps=0)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(alpha=-1e-6)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(knn_k=0)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(constraint_mode="later")
    with pytest.raises(InvalidParameterError):
        SamplerConfig(t_floor=0.0)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(t_constraint=0.0)
    with pytest.raises(InvalidParameterError):
        SamplerConfig(graph_refresh_stride=0)


def test_generate_validation():
    field = ZeroField()
    cfg = SamplerConfig(n_steps=5, alpha=0.1, constraint_mode="frozen_score", knn_k=10)
    with pytest.raises(InvalidParameterError):
        generate(field, SCHEDULE, cfg, n_clouds=1, n_points=8)
    with pytest.raises(InvalidParameterError):
        generate(field, SCHEDULE, cfg, n_clouds=0, n_points=32)
    with pytest.raises(InvalidInputError):
        generate(
            field, SCHEDULE, SamplerConfig(n_steps=5, alpha=0.0, constraint_mode="off"),
            n_clouds=2, n_points=8, latents=np.zeros((3, 4)),
        )

    class WrongShape(ScoreField):
        latent_dim = 2

        def evaluate(self, xt, z, t):
            return np.zeros(5)

    off = SamplerConfig(n_steps=2, alpha=0.0, constraint_mode="off")
    with pytest.raises(InvalidInputError, match="score shape"):
        generate(WrongShape(), SCHEDULE, off, n_clouds=1, n_points=8)
    with pytest.raises(InvalidInputError, match="score shape"):
        generate(ZeroField(), SCHEDULE, off, n_clouds=1, n_points=8,
                 latent_field=WrongShape())


def test_generate_deterministic_per_seed():
    field = single_gaussian(sigma0=0.6)
    cfg = SamplerConfig(n_steps=15, alpha=0.0, constraint_mode="off", seed=77)
    a, _ = generate(field, SCHEDULE, cfg, n_clouds=2, n_points=10)
    b, _ = generate(field, SCHEDULE, cfg, n_clouds=2, n_points=10)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    other = SamplerConfig(n_steps=15, alpha=0.0, constraint_mode="off", seed=78)
    c, _ = generate(field, SCHEDULE, other, n_clouds=2, n_points=10)
    assert not np.array_equal(a[0].points, c[0].points)


def test_graph_refresh_stride_counts_builds(monkeypatch):
    import smoothdiff.sampler as sampler_mod

    calls = {"n": 0}
    real = sampler_mod.build_knn_graph

    def counting(cloud, k):
        calls["n"] += 1
        return real(cloud, k)

    monkeypatch.setattr(sampler_mod, "build_knn_graph", counting)
    field = single_gaussian(sigma0=0.5)
    cfg = SamplerConfig(
        n_steps=10, alpha=1e-4, constraint_mode="frozen_score", knn_k=3,
        graph_refresh_stride=3, seed=1,
    )
    generate(field, SCHEDULE, cfg, n_clouds=1, n_points=12)
    # steps 0, 3, 6, 9 rebuild the graph
    assert calls["n"] == 4


def test_trajectory_shape_and_monotone_t(tmp_path):
    field = single_gaussian(sigma0=0.5)
    cfg = SamplerConfig(
        n_steps=25, alpha=1e-4, constraint_mode="frozen_score", knn_k=4,
        seed=2, record_trajectory=True,
    )
    clouds, trajs = generate(field, SCHEDULE, cfg, n_clouds=2, n_points=20)
    assert len(trajs) == 2
    tr = trajs[0]
    assert tr.step.shape == (26,)
    assert list(tr.step) == list(range(26))
    assert np.all(np.diff(tr.t) < 0)
    assert tr.t[0] == 1.0 and tr.t[-1] == cfg.t_floor
    assert np.all(tr.smoothness >= 0)

    path = tmp_path / "traj.csv"
    tr.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "smoothness"]
    assert len(rows) == 27
    assert float(rows[1][1]) == 1.0
    back = np.array([[float(c) for c in row] for row in rows[1:]])
    assert np.allclose(back[:, 2], tr.smoothness, rtol=0, atol=0)


def test_trajectory_recorded_without_constraint():
    field = single_gaussian(sigma0=0.5)
    cfg = SamplerConfig(
        n_steps=8, alpha=0.0, constraint_mode="off", knn_k=3, record_trajectory=True
    )
    _, trajs = generate(field, SCHEDULE, cfg, n_clouds=1, n_points=10)
    assert trajs is not None and trajs[0].step.size == 9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generate_aborts_on_divergence():
    cfg = SamplerConfig(n_steps=5, alpha=0.0, constraint_mode="off")
    with pytest.raises(NumericalAbortError, match=re.escape(
            "step 0, t=1.0: non-finite state of cloud 0")):
        generate(HugeField(), SCHEDULE, cfg, n_clouds=1, n_points=4)
    # 5 calls per chain: the 9th call is step 3 of the second chain
    t3 = repr(1.0 - 3 * ((1.0 - cfg.t_floor) / cfg.n_steps))
    with pytest.raises(NumericalAbortError, match=re.escape(
            f"step 3, t={t3}: non-finite state of cloud 1")):
        generate(BlowUpAfter(8), SCHEDULE, cfg, n_clouds=2, n_points=4)
    with pytest.raises(NumericalAbortError, match=re.escape(
            f"step 3, t={t3}: non-finite latent code of cloud 1")):
        generate(ZeroField(), SCHEDULE, cfg, n_clouds=2, n_points=4,
                 latent_field=BlowUpAfter(8))


def test_terminal_denoise_scales_zero_field_output():
    cfg_plain = SamplerConfig(n_steps=12, alpha=0.0, constraint_mode="off", seed=4)
    cfg_denoise = SamplerConfig(
        n_steps=12, alpha=0.0, constraint_mode="off", seed=4, terminal_denoise=True
    )
    plain, _ = generate(ZeroField(), SCHEDULE, cfg_plain, n_clouds=1, n_points=6)
    denoised, _ = generate(ZeroField(), SCHEDULE, cfg_denoise, n_clouds=1, n_points=6)
    a = SCHEDULE.drift_coef(cfg_plain.t_floor)
    assert np.array_equal(denoised[0].points, plain[0].points / a)


def test_sample_latent_deterministic(tiny_bundle):
    cfg = SamplerConfig(n_steps=10, alpha=0.0, constraint_mode="off")
    z1 = sample_latent(tiny_bundle.latent, SCHEDULE, cfg, np.random.default_rng(3))
    z2 = sample_latent(tiny_bundle.latent, SCHEDULE, cfg, np.random.default_rng(3))
    assert z1.shape == (6,)
    assert np.array_equal(z1, z2)


def test_generate_with_explicit_latents(tiny_bundle):
    cfg = SamplerConfig(n_steps=8, alpha=0.0, constraint_mode="off", seed=11)
    latents = np.random.default_rng(0).standard_normal((2, 6))
    a, _ = generate(tiny_bundle.decoder, SCHEDULE, cfg, 2, 10, latents=latents)
    b, _ = generate(tiny_bundle.decoder, SCHEDULE, cfg, 2, 10, latents=latents)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
