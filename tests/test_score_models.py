"""Score fields: analytic mixture, decoder/encoder/latent networks, embeddings.

All hand-rolled gradients are validated against central finite differences on
randomized parameter vectors (fresh nets have zero-initialized output layers,
which would make the checks vacuous).
"""

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from smoothdiff import (
    GaussianMixtureScore,
    InvalidInputError,
    InvalidParameterError,
    LatentScoreNet,
    MlpScoreNet,
    ModelConfig,
    PointEncoder,
    DiffusionSchedule,
    build_models,
)
from smoothdiff.score_models import (
    ModelBundle,
    _silu_inplace,
    reparameterize,
    time_embedding,
)
from smoothdiff.sde import EPS_T

from conftest import numeric_grad

SCHEDULE = DiffusionSchedule()


def perturbed_log_pdf(model, x, t):
    """Independent oracle: log density of the diffused mixture at time t."""
    a = SCHEDULE.drift_coef(t)
    b = SCHEDULE.diffusion_std(t)
    var = a * a * model.sigma0**2 + b * b
    terms = []
    for w, mu in zip(model.weights, model.means):
        r2 = np.sum((x - a * mu) ** 2)
        terms.append(np.log(w) - 0.5 * r2 / var - 1.5 * np.log(2 * np.pi * var))
    return logsumexp(terms)


@pytest.fixture
def gmm():
    means = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    return GaussianMixtureScore(
        means=means, sigma0=0.3, weights=np.array([0.5, 0.3, 0.2]), schedule=SCHEDULE
    )


# ------------------------------------------------------------------ GMM


def test_gmm_single_component_closed_form():
    mu = np.array([[1.0, -1.0, 0.5]])
    model = GaussianMixtureScore(
        means=mu, sigma0=0.2, weights=np.array([1.0]), schedule=SCHEDULE
    )
    x = np.array([[0.3, 0.7, -0.2]])
    t = 0.45
    a, b = SCHEDULE.drift_coef(t), SCHEDULE.diffusion_std(t)
    var = a * a * 0.04 + b * b
    expected = -(x - a * mu) / var
    assert np.allclose(model.evaluate(x, None, t), expected, rtol=1e-13)


def test_gmm_score_is_gradient_of_log_pdf(gmm, rng):
    for t in (0.05, 0.4, 0.95):
        x = rng.standard_normal((1, 3))
        s = gmm.evaluate(x, None, t)
        fd = numeric_grad(lambda y: perturbed_log_pdf(gmm, y, t), x.copy(), eps=1e-6)
        assert np.max(np.abs(s - fd)) < 1e-7


def test_gmm_symmetric_mixture_zero_score_at_origin():
    means = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    model = GaussianMixtureScore(
        means=means, sigma0=0.25, weights=np.array([0.5, 0.5]), schedule=SCHEDULE
    )
    s = model.evaluate(np.zeros((1, 3)), None, 0.3)
    assert np.max(np.abs(s)) < 1e-14


def test_gmm_input_vjp_matches_directional_fd(gmm, rng):
    x = rng.standard_normal((2, 3))
    v = rng.standard_normal((2, 3))
    t = 0.5
    got = gmm.input_vjp(x, None, t, v)
    eps = 1e-6
    # the perturbed-density Hessian is symmetric, so the VJP equals the JVP
    fd = (gmm.evaluate(x + eps * v, None, t) - gmm.evaluate(x - eps * v, None, t)) / (2 * eps)
    assert np.max(np.abs(got - fd)) < 1e-6


def test_gmm_1d_input(gmm):
    x = np.array([0.1, 0.2, 0.3])
    t = 0.7
    single = gmm.evaluate(x, None, t)
    assert single.shape == (3,)
    assert np.array_equal(single[None, :], gmm.evaluate(x[None, :], None, t))


# ------------------------------------------------------------ embeddings


def test_time_embedding_structure():
    dim = 16
    emb = time_embedding(0.37, dim)
    assert emb.shape == (dim,)
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), dim // 2))
    assert np.allclose(emb[: dim // 2], np.sin(0.37 * freqs))
    assert np.allclose(emb[dim // 2 :], np.cos(0.37 * freqs))
    with pytest.raises(InvalidParameterError):
        time_embedding(0.5, 9)


def test_time_embedding_distinguishes_times():
    a = time_embedding(0.1, 32)
    b = time_embedding(0.9, 32)
    assert np.linalg.norm(a - b) > 0.1


# --------------------------------------------------------------- decoder


def test_fresh_decoder_outputs_zero():
    net = MlpScoreNet(latent_dim=4, width=8, n_blocks=2, temb_dim=4, rng=np.random.default_rng(0))
    out = net.evaluate(np.ones((5, 3)), np.ones(4), 0.5)
    assert np.array_equal(out, np.zeros((5, 3)))


def test_decoder_param_gradient_matches_fd(tiny_bundle, rng):
    net = tiny_bundle.decoder
    xt = rng.standard_normal((4, 3))
    z = rng.standard_normal(6)
    v = rng.standard_normal((4, 3))
    t = 0.6

    _, cache = net.forward(xt, z, t)
    g, _, _ = net.backward(cache, v)

    def scalar(params):
        net.params[:] = params
        out, _ = net.forward(xt, z, t)
        return float(np.sum(out * v))

    base = net.params.copy()
    fd = numeric_grad(scalar, base.copy(), eps=1e-6)
    net.params[:] = base
    assert np.max(np.abs(g - fd)) < 1e-7


def test_decoder_input_gradients_match_fd(tiny_bundle, rng):
    net = tiny_bundle.decoder
    xt = rng.standard_normal((3, 3))
    z = rng.standard_normal(6)
    v = rng.standard_normal((3, 3))
    t = 0.35

    _, cache = net.forward(xt, z, t)
    _, dx, dz = net.backward(cache, v)

    fd_x = numeric_grad(
        lambda y: float(np.sum(net.forward(y, z, t)[0] * v)), xt.copy(), eps=1e-6
    )
    fd_z = numeric_grad(
        lambda w: float(np.sum(net.forward(xt, w, t)[0] * v)), z.copy(), eps=1e-6
    )
    assert np.max(np.abs(dx - fd_x)) < 1e-7
    assert np.max(np.abs(dz - fd_z)) < 1e-7
    # input_vjp is the same quantity as backward's dx
    assert np.allclose(net.input_vjp(xt, z, t, v), dx, rtol=1e-12)


def test_cached_input_vjp_is_backward_input_gradient(tiny_bundle, rng):
    # the input-only VJP from the forward cache equals the uncached VJP
    # exactly, and backward's state gradient to rounding
    t = 0.45
    dec = tiny_bundle.decoder
    xt, z, v = rng.standard_normal((5, 3)), rng.standard_normal(6), rng.standard_normal((5, 3))
    score, cache = dec.forward(xt, z, t)
    assert np.array_equal(score, dec.evaluate(xt, z, t))
    cached = dec.input_vjp(xt, z, t, v, cache=cache)
    assert np.array_equal(cached, dec.input_vjp(xt, z, t, v))
    assert np.allclose(cached, dec.backward(cache, v)[1], rtol=1e-12, atol=0)

    lat = tiny_bundle.latent
    zt, u = rng.standard_normal(6), rng.standard_normal(6)
    score, cache = lat.forward(zt, t)
    assert score.shape == (6,)
    cached = lat.input_vjp(zt, None, t, u, cache=cache)
    assert cached.shape == (6,)
    assert np.array_equal(cached, lat.input_vjp(zt, None, t, u))
    assert np.allclose(cached, lat.backward(cache, u)[1], rtol=1e-12, atol=0)


def test_decoder_permutation_equivariance(tiny_bundle, rng):
    net = tiny_bundle.decoder
    xt = rng.standard_normal((8, 3))
    z = rng.standard_normal(6)
    perm = rng.permutation(8)
    a = net.evaluate(xt, z, 0.5)[perm]
    b = net.evaluate(xt[perm], z, 0.5)
    assert np.array_equal(a, b)


def test_decoder_evaluate_is_forward_output(tiny_bundle, rng):
    net = tiny_bundle.decoder
    xt = rng.standard_normal((4, 3))
    z = rng.standard_normal(6)
    assert np.array_equal(net.evaluate(xt, z, 0.5), net.forward(xt, z, 0.5)[0])


@pytest.fixture(scope="module")
def desk_nets():
    # desk-sized nets with every parameter random (a fresh output layer is
    # zero, which would make the comparisons vacuous)
    gen = np.random.default_rng(77)
    nets = (MlpScoreNet(64, rng=gen), LatentScoreNet(64, rng=gen))
    for net in nets:
        net.params[:] = 0.05 * gen.standard_normal(net.n_params)
    return nets


@pytest.mark.parametrize("t", [0.05, 0.4, 0.95])
@pytest.mark.parametrize("n", [1, 256, 2048])
def test_evaluate_runs_the_cache_free_forward(desk_nets, n, t):
    # evaluate's cache-free pass reuses its row buffers and updates h in
    # place, in the same order of operations as the cached pass
    dec, lat = desk_nets
    gen = np.random.default_rng(n)
    xt, z, zt = gen.standard_normal((n, 3)), gen.standard_normal(64), gen.standard_normal(64)
    out, cache = dec.forward(xt, z, t)
    assert cache is not None
    assert np.array_equal(dec.evaluate(xt, z, t), out)
    free, none = dec.forward(xt, z, t, keep=False)
    assert none is None and np.array_equal(free, out)
    out, _ = lat.forward(zt, t)
    assert np.array_equal(lat.evaluate(zt, None, t), out)
    free, none = lat.forward(zt, t, keep=False)
    assert none is None and np.array_equal(free, out)


@pytest.mark.parametrize("t", [EPS_T, 0.3, 1.0])
@pytest.mark.parametrize("n", [256, 2048])
def test_step_scorer_stays_close_to_evaluate(desk_nets, n, t):
    # the float32 passes against the float64 evaluate, input_vjp and backward
    # they stand in for: keep=False on every chain step, keep=True with the
    # VJP on its cache on guided exact steps, and backward on a float32
    # forward(keep=True) cache as training runs it
    dec, lat = desk_nets
    gen = np.random.default_rng(n)
    xt, z, zt = gen.standard_normal((n, 3)), gen.standard_normal(64), gen.standard_normal(64)
    v, u = gen.standard_normal((n, 3)), gen.standard_normal(64)

    def assert_close(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    for net, args, up in ((dec, (xt, z, t), v), (lat, (zt, None, t), u)):
        want = net.evaluate(*args)
        got, cache = net.step_scorer()(*args)
        assert cache is None
        assert_close(got, want)
        got, cache = net.step_scorer()(*args, keep=True)
        assert cache[-1].dtype == np.float32
        assert_close(got, want)
        assert_close(net.input_vjp(*args, up, cache=cache), net.input_vjp(*args, up))
        # (parameter gradient, d/d state[, d/d code]) against the float64 cache's
        want = net.backward(net._field_forward(*args)[1], up)
        got = net.backward(net._field_forward(*args, params=cache[-1])[1], up)
        assert len(got) == len(want) == (3 if net is dec else 2)
        for g, w in zip(got, want):
            assert_close(g, w)


@pytest.mark.parametrize("n", [256, 2048])
def test_step_scorer_keeps_only_the_rows_input_vjp_reads(desk_nets, n):
    # a guided step's cache holds each block's sigmoids and SiLU outputs and
    # the float32 weights, and no block inputs; input_vjp on it is input_vjp
    # on the float32 forward(keep=True) cache that training keeps, bit for bit
    dec, lat = desk_nets
    gen = np.random.default_rng(n + 1)
    xt, z, zt = gen.standard_normal((n, 3)), gen.standard_normal(64), gen.standard_normal(64)
    v, u = gen.standard_normal((n, 3)), gen.standard_normal(64)
    for net, args, up, rows in ((dec, (xt, z, 0.3), v, n), (lat, (zt, None, 0.3), u, 1)):
        score, cache = net.step_scorer()(*args, keep=True)
        sigs, acts, weights = cache
        assert weights.dtype == np.float32 and weights.shape == (net.n_params,)
        assert len(sigs) == len(acts) == net.n_blocks
        for a in sigs + acts:
            assert a.dtype == np.float32 and a.shape == (rows, net.width)
        full_score, full = net._field_forward(*args, params=weights)
        assert len(full) == 7 and len(full[3]) == net.n_blocks + 1
        assert np.array_equal(score, full_score)
        for kept, ran in zip(sigs + acts, full[4] + full[5]):
            assert np.array_equal(kept, ran)
        assert np.array_equal(net.input_vjp(*args, up, cache=cache),
                              net.input_vjp(*args, up, cache=full))


def test_silu_sigmoid_matches_expit():
    # 0.5 + 0.5 tanh(x / 2) against scipy's expit, out to both saturations
    x = np.concatenate([np.linspace(-800.0, 800.0, 100001), [-np.inf, np.inf]])
    act = x.copy()
    with np.errstate(invalid="ignore"):  # -inf * sigmoid(-inf) = -inf * 0
        sig = _silu_inplace(act)
    assert np.max(np.abs(sig - expit(x))) <= 2.3e-16
    assert sig[-2] == 0.0 and sig[-1] == 1.0
    finite = np.isfinite(x)
    assert np.array_equal(act[finite], x[finite] * sig[finite])
    buf = np.empty_like(x)
    act = x.copy()
    with np.errstate(invalid="ignore"):
        assert _silu_inplace(act, out=buf) is buf
    assert np.array_equal(buf, sig)


# --------------------------------------------------------------- encoder


def test_encoder_permutation_invariance(tiny_bundle, rng):
    enc = tiny_bundle.encoder
    cloud = rng.standard_normal((10, 3))
    m1, lv1, _ = enc.forward(cloud)
    m2, lv2, _ = enc.forward(cloud[rng.permutation(10)])
    assert np.array_equal(m1, m2)
    assert np.array_equal(lv1, lv2)


def test_encoder_duplication_idempotent(tiny_bundle, rng):
    # max-pooling over per-point features ignores multiplicity
    enc = tiny_bundle.encoder
    cloud = rng.standard_normal((6, 3))
    doubled = np.concatenate([cloud, cloud], axis=0)
    m1, lv1, _ = enc.forward(cloud)
    m2, lv2, _ = enc.forward(doubled)
    assert np.array_equal(m1, m2)
    assert np.array_equal(lv1, lv2)


def test_encoder_logvar_bounded(tiny_bundle, rng):
    enc = tiny_bundle.encoder
    for scale in (0.01, 1.0, 100.0):
        _, lv, _ = enc.forward(scale * rng.standard_normal((12, 3)))
        assert np.all(lv >= -20.0) and np.all(lv <= 4.0)


def test_encoder_param_gradient_matches_fd(tiny_bundle, rng):
    enc = tiny_bundle.encoder
    cloud = rng.standard_normal((5, 3))
    v1 = rng.standard_normal(6)
    v2 = rng.standard_normal(6)

    _, _, cache = enc.forward(cloud)
    g = enc.backward(cache, v1, v2)

    def scalar(params):
        enc.params[:] = params
        m, lv, _ = enc.forward(cloud)
        return float(np.dot(m, v1) + np.dot(lv, v2))

    base = enc.params.copy()
    fd = numeric_grad(scalar, base.copy(), eps=1e-6)
    enc.params[:] = base
    assert np.max(np.abs(g - fd)) < 1e-7


def _dense_encoder_gradient(enc, pts, dmean, dlogvar):
    """The encoder's parameter gradient backpropagated through every row."""
    p = {name: enc.layout.view(enc.params, name) for name in enc.layout.slots}

    def silu_and_slope(pre):
        s = expit(pre)
        return pre * s, s * (1.0 + pre * (1.0 - s))

    a1, d1 = silu_and_slope(pts @ p["w1"].T + p["b1"])
    a2, d2 = silu_and_slope(a1 @ p["w2"].T + p["b2"])
    a3, d3 = silu_and_slope(a2 @ p["w3"].T + p["b3"])
    cols = np.arange(a3.shape[1])
    pick = a3.argmax(axis=0)
    pooled = a3[pick, cols]
    raw = pooled @ p["logvar_w"].T + p["logvar_b"]
    dlogvar = np.where((raw > -20.0) & (raw < 4.0), dlogvar, 0.0)
    g = {"mean_w": np.outer(dmean, pooled), "mean_b": dmean,
         "logvar_w": np.outer(dlogvar, pooled), "logvar_b": dlogvar}
    da3 = np.zeros_like(a3)
    da3[pick, cols] = dmean @ p["mean_w"] + dlogvar @ p["logvar_w"]
    da3 *= d3
    da2 = (da3 @ p["w3"]) * d2
    da1 = (da2 @ p["w2"]) * d1
    for k, (da, below) in enumerate(((da1, pts), (da2, a1), (da3, a2)), start=1):
        g[f"w{k}"], g[f"b{k}"] = da.T @ below, da.sum(axis=0)
    return np.concatenate([g[name].ravel() for name in enc.layout.slots])


@pytest.mark.parametrize("case", ["duplicated", "fewer_than_width", "paper"])
def test_encoder_backward_matches_the_dense_formula(case):
    # the backward pass runs on the max pool's rows only; every other row
    # carries a zero gradient, so the result is the dense one up to rounding
    gen = np.random.default_rng(11)
    enc = PointEncoder(64, rng=gen)
    enc.params[:] += 0.05 * gen.standard_normal(enc.n_params)
    if case == "duplicated":  # exact argmax ties between repeated points
        pts = np.repeat(gen.standard_normal((64, 3)), 4, axis=0)[gen.permutation(256)]
    else:
        pts = gen.standard_normal((100 if case == "fewer_than_width" else 2048, 3))
    dmean, dlogvar = gen.standard_normal(64), gen.standard_normal(64)
    mean, logvar, cache = enc.forward(pts)
    rows = cache[0].shape[0]
    assert rows <= min(len(pts), enc.feature_width)
    assert all(a.shape[0] == rows for a in cache[:7])
    got = enc.backward(cache, dmean, dlogvar)
    want = _dense_encoder_gradient(enc, pts, dmean, dlogvar)
    # relative to the largest entry: an entry that cancels to near zero
    # keeps a rounding error the size of the terms it sums
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # out= adds into the caller's buffer
    buf = np.ones(enc.n_params)
    assert enc.backward(cache, dmean, dlogvar, out=buf) is buf
    assert np.array_equal(buf, 1.0 + got)


# ---------------------------------------------------------------- latent


def test_latent_param_and_input_gradients(tiny_bundle, rng):
    net = tiny_bundle.latent
    zt = rng.standard_normal(6)
    v = rng.standard_normal(6)
    t = 0.55

    _, cache = net.forward(zt, t)
    g, dzt = net.backward(cache, v)

    def scalar(params):
        net.params[:] = params
        out, _ = net.forward(zt, t)
        return float(np.dot(out, v))

    base = net.params.copy()
    fd = numeric_grad(scalar, base.copy(), eps=1e-6)
    net.params[:] = base
    assert np.max(np.abs(g - fd)) < 1e-7

    fd_z = numeric_grad(
        lambda w: float(np.dot(net.forward(w, t)[0], v)), zt.copy(), eps=1e-6
    )
    assert np.max(np.abs(dzt - fd_z)) < 1e-7
    assert np.array_equal(net.evaluate(zt, None, t), net.forward(zt, t)[0])


def test_fresh_latent_outputs_zero():
    net = LatentScoreNet(latent_dim=4, width=8, n_blocks=2, temb_dim=4, rng=np.random.default_rng(0))
    assert np.array_equal(net.evaluate(np.ones(4), None, 0.5), np.zeros(4))


# ------------------------------------------------------------- assembly


def test_reparameterize_closed_form_and_moments(rng):
    mean = np.array([1.0, -2.0, 0.5])
    logvar = np.array([0.0, np.log(4.0), np.log(0.25)])
    noise = rng.standard_normal(3)
    z = reparameterize(mean, logvar, noise)
    assert np.allclose(z, mean + np.exp(0.5 * logvar) * noise, rtol=1e-15)
    draws = np.stack([reparameterize(mean, logvar, rng.standard_normal(3)) for _ in range(20000)])
    assert np.max(np.abs(draws.mean(axis=0) - mean)) < 0.05
    assert np.max(np.abs(draws.std(axis=0) - np.exp(0.5 * logvar))) < 0.05


def test_build_models_deterministic_and_consistent(tiny_model_config):
    b1 = build_models(tiny_model_config, seed=5)
    b2 = build_models(tiny_model_config, seed=5)
    assert np.array_equal(b1.decoder.params, b2.decoder.params)
    assert np.array_equal(b1.encoder.params, b2.encoder.params)
    assert np.array_equal(b1.latent.params, b2.latent.params)
    b3 = build_models(tiny_model_config, seed=6)
    assert not np.array_equal(b1.decoder.params, b3.decoder.params)
    assert b1.config == tiny_model_config


def test_build_models_copies_given_params(tiny_model_config):
    fresh = build_models(tiny_model_config, seed=5)
    given = [net.params + 1.0 for net in (fresh.encoder, fresh.decoder, fresh.latent)]
    bundle = build_models(tiny_model_config, params=given)
    for net, want in zip((bundle.encoder, bundle.decoder, bundle.latent), given):
        assert np.array_equal(net.params, want)
        assert net.params is not want


def test_bundle_rejects_mismatched_latent_dims():
    enc = PointEncoder(latent_dim=4, feature_width=8, rng=np.random.default_rng(0))
    dec = MlpScoreNet(latent_dim=4, width=8, n_blocks=1, temb_dim=4, rng=np.random.default_rng(1))
    lat = LatentScoreNet(latent_dim=5, width=8, n_blocks=1, temb_dim=4, rng=np.random.default_rng(2))
    with pytest.raises(InvalidInputError):
        ModelBundle(encoder=enc, decoder=dec, latent=lat)


def test_bundle_rejects_mismatched_time_embeddings():
    # bundle.config has one temb_dim, so a bundle whose score nets differ in
    # it could be saved but not loaded
    enc = PointEncoder(latent_dim=4, feature_width=8)
    dec = MlpScoreNet(latent_dim=4, width=8, n_blocks=1, temb_dim=4)
    lat = LatentScoreNet(latent_dim=4, width=8, n_blocks=1, temb_dim=6)
    with pytest.raises(InvalidInputError, match="time embedding"):
        ModelBundle(encoder=enc, decoder=dec, latent=lat)


@pytest.mark.parametrize("temb_dim", [7, -2])
def test_score_nets_reject_a_bad_time_embedding_width(temb_dim):
    # refused when the nets are built, not at their first evaluate (odd) or
    # inside np.linspace (negative)
    with pytest.raises(InvalidParameterError, match="temb_dim"):
        build_models(ModelConfig(temb_dim=temb_dim))
    for cls in (MlpScoreNet, LatentScoreNet):
        with pytest.raises(InvalidParameterError, match="temb_dim"):
            cls(latent_dim=4, width=8, n_blocks=1, temb_dim=temb_dim)


def test_score_net_parameter_layouts_are_pinned():
    # slot names, order and shapes are the parameter blocks of the SDPC
    # checkpoint format; changing them breaks every saved checkpoint
    def slots(net):
        return [(name, off, tuple(shape)) for name, (off, shape) in net.layout.slots.items()]

    dec = MlpScoreNet(latent_dim=2, width=4, n_blocks=2, temb_dim=6)
    assert slots(dec) == [
        ("in_w", 0, (4, 9)), ("in_b", 36, (4,)),
        ("b0_w1", 40, (4, 6)), ("b0_b1", 64, (4,)), ("b0_w2", 68, (4, 4)), ("b0_b2", 84, (4,)),
        ("b1_w1", 88, (4, 6)), ("b1_b1", 112, (4,)), ("b1_w2", 116, (4, 4)), ("b1_b2", 132, (4,)),
        ("out_w", 136, (3, 4)), ("out_b", 148, (3,)),
    ]
    assert dec.n_params == 151
    lat = LatentScoreNet(latent_dim=2, width=4, n_blocks=1, temb_dim=6)
    assert slots(lat) == [
        ("in_w", 0, (4, 8)), ("in_b", 32, (4,)),
        ("b0_w1", 36, (4, 4)), ("b0_b1", 52, (4,)), ("b0_w2", 56, (4, 4)), ("b0_b2", 72, (4,)),
        ("out_w", 76, (2, 4)), ("out_b", 84, (2,)),
    ]
    assert lat.n_params == 86
