"""Training losses, optimizer behavior, and the epoch loop."""

import tracemalloc
import weakref

import numpy as np
import pytest

from smoothdiff import (
    DiffusionSchedule,
    InvalidInputError,
    ModelConfig,
    NumericalAbortError,
    TrainConfig,
    build_models,
    entropy_term,
    latent_dsm_loss,
    recon_dsm_loss,
    train,
)
from smoothdiff.score_models import reparameterize
from smoothdiff.training import (
    _ADAM_BLOCK,
    _TRAIN_ROWS,
    Adam,
    LossReport,
    _cloud_losses,
    _dsm,
    lr_factor,
    make_optimizers,
    train_step,
)

from conftest import FixedRng, numeric_grad

SCHEDULE = DiffusionSchedule()


class OracleCloudField:
    """Score field that returns the exact conditional score for a fixed x0."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=float)

    def evaluate(self, xt, z, t):
        return SCHEDULE.conditional_score_target(self.x0, xt, t)


class OracleLatentField:
    def __init__(self, z0):
        self.z0 = np.asarray(z0, dtype=float)

    def evaluate(self, zt, z, t):
        return SCHEDULE.conditional_score_target(self.z0, zt, t)


# ---------------------------------------------------------------- losses


def test_recon_dsm_loss_zero_at_exact_score(rng):
    x0 = rng.standard_normal((16, 3))
    field = OracleCloudField(x0)
    for _ in range(50):
        t = rng.uniform(1e-3, 1.0)
        noise = rng.standard_normal((16, 3))
        loss = recon_dsm_loss(field, x0, None, t, noise, SCHEDULE)
        assert abs(loss) <= 1e-12


def test_latent_dsm_loss_zero_at_exact_score(rng):
    z0 = rng.standard_normal(8)
    field = OracleLatentField(z0)
    for _ in range(50):
        t = rng.uniform(1e-3, 1.0)
        noise = rng.standard_normal(8)
        loss = latent_dsm_loss(field, z0, t, noise, SCHEDULE)
        assert abs(loss) <= 1e-12


def test_recon_loss_positive_and_weighted(rng):
    # a field that is off by a constant vector c has residual exactly c,
    # so the loss is beta(t)/2 * |c|^2 regardless of the draw
    x0 = rng.standard_normal((10, 3))
    c = np.array([0.3, -0.1, 0.2])

    class Offset(OracleCloudField):
        def evaluate(self, xt, z, t):
            return super().evaluate(xt, z, t) + c

    t = 0.62
    loss = recon_dsm_loss(Offset(x0), x0, None, t, rng.standard_normal((10, 3)), SCHEDULE)
    assert loss == pytest.approx(0.5 * SCHEDULE.beta(t) * float(np.dot(c, c)), rel=1e-12)


def test_entropy_closed_form_values():
    d = 5
    base = entropy_term(np.zeros(d), np.zeros(d))
    assert base == pytest.approx(0.5 * d * (np.log(2.0 * np.pi) + 1.0), rel=1e-14)
    # the mean does not enter
    assert entropy_term(np.full(d, 7.0), np.zeros(d)) == base
    # adding 2 to every logvar adds exactly d
    assert entropy_term(np.zeros(d), np.full(d, 2.0)) == pytest.approx(base + d, rel=1e-14)


def test_loss_report_total():
    rep = LossReport(epoch=3, recon=1.5, latent=0.25, entropy=2.0)
    assert rep.total == pytest.approx(1.5 + 0.25 - 2.0)


def test_dsm_scores_row_blocks_one_cache_at_a_time():
    """_dsm scores a cloud in row blocks and runs each block's backward before
    the next block's score, so no earlier cache is alive then; with a score
    that is element-wise in the rows, the loss and the upstream rows equal
    those of the whole-cloud pass bit for bit."""
    gen = np.random.default_rng(19)
    n = 2 * _TRAIN_ROWS + 76
    x0, noise = gen.standard_normal((n, 3)), gen.standard_normal((n, 3))
    alive = []

    class Cache:
        pass

    def score(xt):
        assert all(ref() is None for ref in alive)
        cache = Cache()
        alive.append(weakref.ref(cache))
        return xt * xt - 0.5 * xt, cache

    def backward(cache, ds):
        return ds.copy()

    loss, blocks = _dsm(score, x0, 0.37, noise, SCHEDULE, backward, _TRAIN_ROWS)
    assert [len(b) for b in blocks] == [_TRAIN_ROWS, _TRAIN_ROWS, 76]
    alive.clear()
    whole_loss, (whole,) = _dsm(score, x0, 0.37, noise, SCHEDULE, backward)
    assert loss == whole_loss
    assert np.array_equal(np.concatenate(blocks), whole)


# --------------------------------------------------------------- gradient


def _zero_grads(bundle):
    return tuple(np.zeros(net.n_params) for net in (bundle.encoder, bundle.decoder, bundle.latent))


def test_cloud_losses_gradient_matches_fd(tiny_bundle):
    """End-to-end check: the flat gradients returned by the forward/backward
    pass equal finite differences of (recon + latent - entropy), on a small
    cloud and on one the decoder runs in row blocks with a ragged last one."""
    rng = np.random.default_rng(77)
    cfg = TrainConfig()
    for n in (6, _TRAIN_ROWS + 37):
        points = rng.standard_normal((n, 3))
        t_val = 0.43
        eps_z = rng.standard_normal(6)
        noise_x = rng.standard_normal((n, 3))
        noise_z = rng.standard_normal(6)

        def total_for(name):
            def f(params):
                getattr(tiny_bundle, name).params[:] = params
                lx, lz, ent = _cloud_losses(
                    tiny_bundle, points, SCHEDULE, cfg,
                    FixedRng(t_val, [eps_z, noise_x, noise_z]), _zero_grads(tiny_bundle),
                )
                return lx + lz - ent

            return f

        g_enc, g_dec, g_lat = _zero_grads(tiny_bundle)
        lx, lz, ent = _cloud_losses(
            tiny_bundle, points, SCHEDULE, cfg, FixedRng(t_val, [eps_z, noise_x, noise_z]),
            (g_enc, g_dec, g_lat),
        )
        assert np.isfinite([lx, lz, ent]).all()

        checked = (("encoder", g_enc), ("decoder", g_dec), ("latent", g_lat))
        if n > _TRAIN_ROWS:
            # the latent net's gradient does not pass through the decoder
            checked = checked[:2]
        for name, grad in checked:
            net = getattr(tiny_bundle, name)
            base = net.params.copy()
            fd = numeric_grad(total_for(name), base.copy(), eps=1e-6)
            net.params[:] = base
            assert np.max(np.abs(grad - fd)) < 2e-6, (n, name)


def test_training_runs_the_decoder_on_a_float32_copy(monkeypatch):
    """train_step casts the decoder's weights to float32 once per batch,
    after the previous Adam step; the gradients _cloud_losses adds with that
    copy lie within 1e-5, relative, of those it adds with the float64
    weights, for all three nets."""
    bundle = build_models(ModelConfig(), seed=0)
    gen = np.random.default_rng(11)
    for net in (bundle.encoder, bundle.decoder, bundle.latent):
        net.params[:] = 0.05 * gen.standard_normal(net.n_params)
    points = 0.5 * gen.standard_normal((256, 3))
    cfg = TrainConfig()
    for t in (0.05, 0.5, 1.0):
        normals = [gen.standard_normal(64), gen.standard_normal((256, 3)),
                   gen.standard_normal(64)]
        runs = []
        for weights in (None, bundle.decoder.params.astype(np.float32)):
            grads = _zero_grads(bundle)
            losses = _cloud_losses(bundle, points, SCHEDULE, cfg, FixedRng(t, normals),
                                   grads, weights)
            runs.append((losses, grads))
        (want_losses, want_grads), (got_losses, got_grads) = runs
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-5)
        for got, want in zip(got_grads, want_grads):
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    seen = []
    forward = bundle.decoder.forward
    monkeypatch.setattr(bundle.decoder, "forward",
                        lambda *a, **k: seen.append(k["params"]) or forward(*a, **k))
    opts = make_optimizers(bundle, cfg)
    for _ in range(2):
        cast = bundle.decoder.params.astype(np.float32)
        seen.clear()
        train_step(bundle, [points, points[::-1]], SCHEDULE, cfg, gen, opts)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0].dtype == np.float32 and np.array_equal(seen[0], cast)


def test_training_losses_are_the_public_dsm_losses(tiny_bundle):
    """With the float64 weights, the losses _cloud_losses reports are
    recon_dsm_loss and latent_dsm_loss of the same draws, bit for bit, so
    criterion 8 covers the training path; train_step passes a float32 copy
    of the decoder's weights, and the test above bounds what that moves."""
    rng = np.random.default_rng(5)
    points = rng.standard_normal((7, 3))
    t = 0.31
    eps_z, noise_x, noise_z = (rng.standard_normal(s) for s in (6, (7, 3), 6))
    draws = FixedRng(t, [eps_z, noise_x, noise_z])
    lx, lz, _ = _cloud_losses(
        tiny_bundle, points, SCHEDULE, TrainConfig(), draws, _zero_grads(tiny_bundle)
    )
    mean, logvar, _ = tiny_bundle.encoder.forward(points)
    z0 = reparameterize(mean, logvar, eps_z)
    assert lx == recon_dsm_loss(tiny_bundle.decoder, points, z0, t, noise_x, SCHEDULE)
    assert lz == latent_dsm_loss(tiny_bundle.latent, z0, t, noise_z, SCHEDULE)


def test_cloud_losses_add_into_the_buffers(tiny_bundle):
    """Two clouds added into one set of buffers give exactly the sum of the
    gradients each cloud gives into fresh buffers, as train_step sums them."""
    gen = np.random.default_rng(8)
    clouds = [gen.standard_normal((n, 3)) for n in (9, 13)]
    draws = [
        (t, [gen.standard_normal(6), gen.standard_normal((len(c), 3)), gen.standard_normal(6)])
        for t, c in zip((0.27, 0.81), clouds)
    ]
    cfg = TrainConfig()
    shared = _zero_grads(tiny_bundle)
    singles = []
    for cloud, (t, normals) in zip(clouds, draws):
        fresh = _zero_grads(tiny_bundle)
        one = _cloud_losses(tiny_bundle, cloud, SCHEDULE, cfg, FixedRng(t, normals), fresh)
        both = _cloud_losses(tiny_bundle, cloud, SCHEDULE, cfg, FixedRng(t, normals), shared)
        assert one == both
        singles.append(fresh)
    for summed, first, second in zip(shared, *singles):
        assert np.any(first != 0) and np.any(second != 0)
        assert np.array_equal(summed, first + second)


def test_train_step_memory_is_bounded_by_the_layouts():
    """A desk-net step holds no per-cloud gradient copy and no full-cloud
    encoder or decoder cache, runs Adam in blocks, and drops the decoder's
    float32 weights before Adam: its traced peak stays within the gradient
    buffers plus the larger of Adam's two block temporaries and the float32
    weights with either the encoder's forward or one row block's decoder
    caches. At N=2048 the encoder's full-cloud forward sets the peak; a
    whole-cloud decoder cache (38 MB) would not fit."""
    for n in (256, 2048):
        bundle = build_models(ModelConfig(), seed=0)
        enc, dec, lat = bundle.encoder, bundle.decoder, bundle.latent
        cfg = TrainConfig(batch_size=2)
        opts = make_optimizers(bundle, cfg)
        gen = np.random.default_rng(0)
        batch = [0.5 * gen.standard_normal((n, 3)) for _ in range(2)]
        train_step(bundle, batch, SCHEDULE, cfg, gen, opts)  # warm up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_step(bundle, batch, SCHEDULE, cfg, gen, opts)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

        f8, f4 = 8, 4  # bytes per float64, float32
        rows = min(n, _TRAIN_ROWS)
        accumulators = f8 * (enc.n_params + dec.n_params + lat.n_params)
        adam_temporaries = 2 * f8 * _ADAM_BLOCK
        decoder_weights = f4 * dec.n_params
        # hs, sigs and acts: 3 n_blocks + 1 float32 arrays of one row block
        decoder_cache = f4 * rows * dec.width * (3 * dec.n_blocks + 1)
        # dh, dpre, the SiLU slope and one matmul result during the backward pass
        working_rows = 4 * f4 * rows * dec.width
        # pts, s1, h1, s2, h2, s3, h3 at no more than feature_width pooled rows
        fw = enc.feature_width
        encoder_cache = f8 * min(n, fw) * (3 + 2 * (fw // 2) + 4 * fw)
        # the encoder's forward over every point: h1, s1, h2, s2, h3, s3 and
        # the copy of h3 that its argmax over the points axis makes
        encoder_forward = f8 * n * (2 * (fw // 2) + 5 * fw)
        bound = (
            accumulators
            + max(adam_temporaries,
                  decoder_weights
                  + max(encoder_forward, decoder_cache + encoder_cache + working_rows))
            + 2**20  # small objects
        )
        assert peak <= bound, (n, peak, bound)


# ------------------------------------------------------------- optimizer


def test_adam_single_step_direction():
    opt = Adam(n_params=3, lr=0.01)
    params = np.array([1.0, -1.0, 0.5])
    grad = np.array([100.0, -0.5, 0.0])
    opt.step(params, grad)
    # with bias correction the first step is lr * sign(grad) up to eps
    assert params[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert params[1] == pytest.approx(-1.0 + 0.01, rel=1e-6)
    assert params[2] == 0.5


def test_adam_lr_scale_and_zero_lr():
    params = np.zeros(2)
    opt = Adam(n_params=2, lr=0.1)
    opt.step(params, np.ones(2), lr_scale=0.0)
    assert np.array_equal(params, np.zeros(2))
    opt2 = Adam(n_params=2, lr=0.0)
    p2 = np.ones(2)
    opt2.step(p2, np.ones(2))
    assert np.array_equal(p2, np.ones(2))


def test_adam_in_place_step_equals_the_formula():
    # the in-place update rounds each element as the textbook expressions do
    # on the whole vector, within one block and over several blocks with a
    # ragged tail
    for n in (10_000, 3 * _ADAM_BLOCK + 1234):
        gen = np.random.default_rng(7)
        opt = Adam(n_params=n, lr=3e-3, beta1=0.8, beta2=0.99)
        params = gen.standard_normal(n)
        ref_p, ref_m, ref_v = params.copy(), np.zeros(n), np.zeros(n)
        for t, scale in enumerate((1.0, 0.7, 0.25, 1.0, 0.05), start=1):
            grad = gen.standard_normal(n) * 10.0 ** gen.uniform(-6, 2, n)
            opt.step(params, grad, lr_scale=scale)
            ref_m = opt.beta1 * ref_m + (1.0 - opt.beta1) * grad
            ref_v = opt.beta2 * ref_v + (1.0 - opt.beta2) * grad * grad
            m_hat = ref_m / (1.0 - opt.beta1 ** t)
            v_hat = ref_v / (1.0 - opt.beta2 ** t)
            ref_p -= (opt.lr * scale) * m_hat / (np.sqrt(v_hat) + opt.eps)
            assert np.array_equal(opt.m, ref_m)
            assert np.array_equal(opt.v, ref_v)
            assert np.array_equal(params, ref_p)


def test_adam_step_memory_is_a_few_blocks():
    # a step over a vector of many blocks allocates two block-sized
    # temporaries, not vector-sized ones
    n = 40 * _ADAM_BLOCK + 5
    gen = np.random.default_rng(3)
    opt = Adam(n_params=n, lr=1e-3)
    params, grad = gen.standard_normal(n), gen.standard_normal(n)
    opt.step(params, grad)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        opt.step(params, grad, lr_scale=0.5)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _ADAM_BLOCK, peak


def test_lr_factor_schedule():
    assert lr_factor(0, 1000, 1000) == 1.0
    assert lr_factor(999, 1000, 1000) == 1.0
    assert lr_factor(1000, 1000, 1000) == 1.0
    assert lr_factor(1500, 1000, 1000) == pytest.approx(0.5)
    assert lr_factor(2000, 1000, 1000) == 0.0
    assert lr_factor(5000, 1000, 1000) == 0.0


# ------------------------------------------------------------ train loop


def _toy_dataset(n_clouds=4, n_points=12, seed=0):
    gen = np.random.default_rng(seed)
    return [gen.standard_normal((n_points, 3)) for _ in range(n_clouds)]


def _tiny_train_config(**kw):
    base = dict(
        epochs=3,
        batch_size=2,
        lr_encoder=1e-3,
        lr_decoder=1e-3,
        lr_latent=1e-3,
        seed=0,
        lr_constant_epochs=2,
        lr_decay_epochs=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_zero_learning_rate_leaves_params_unchanged(tiny_model_config):
    bundle = build_models(tiny_model_config, seed=1)
    before = [net.params.copy() for net in (bundle.encoder, bundle.decoder, bundle.latent)]
    cfg = _tiny_train_config(lr_encoder=0.0, lr_decoder=0.0, lr_latent=0.0)
    reports = train(bundle, _toy_dataset(), SCHEDULE, cfg)
    assert len(reports) == 3
    for net, prev in zip((bundle.encoder, bundle.decoder, bundle.latent), before):
        assert np.array_equal(net.params, prev)


def test_training_is_bit_deterministic(tiny_model_config):
    outs = []
    for _ in range(2):
        bundle = build_models(tiny_model_config, seed=2)
        reports = train(bundle, _toy_dataset(), SCHEDULE, _tiny_train_config())
        outs.append(
            (
                bundle.encoder.params.copy(),
                bundle.decoder.params.copy(),
                bundle.latent.params.copy(),
                [(r.recon, r.latent, r.entropy) for r in reports],
            )
        )
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])
    assert outs[0][3] == outs[1][3]


def test_train_rejects_bad_datasets(tiny_model_config):
    bundle = build_models(tiny_model_config, seed=3)
    with pytest.raises(InvalidInputError):
        train(bundle, _toy_dataset(n_clouds=1), SCHEDULE, _tiny_train_config())
    mixed = [_toy_dataset(1, 12)[0], _toy_dataset(1, 10, seed=5)[0]]
    with pytest.raises(InvalidInputError):
        train(bundle, mixed, SCHEDULE, _tiny_train_config())


def test_train_step_aborts_on_nonfinite(tiny_model_config):
    bundle = build_models(tiny_model_config, seed=4)
    bundle.decoder.params[0] = np.nan
    cfg = _tiny_train_config()
    opts = make_optimizers(bundle, cfg)
    with pytest.raises(NumericalAbortError):
        train_step(
            bundle, _toy_dataset(2), SCHEDULE, cfg, np.random.default_rng(0), opts
        )


def test_loss_csv_written_plain_floats(tiny_model_config, tmp_path):
    bundle = build_models(tiny_model_config, seed=5)
    path = tmp_path / "loss.csv"
    train(bundle, _toy_dataset(), SCHEDULE, _tiny_train_config(), loss_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,recon,latent,entropy,total"
    assert len(lines) == 4
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 5
        int(cells[0])
        for cell in cells[1:]:
            float(cell)
            assert "np." not in cell


def test_resume_appends_without_gap(tiny_model_config, tmp_path):
    bundle = build_models(tiny_model_config, seed=6)
    path = tmp_path / "loss.csv"
    cfg3 = _tiny_train_config(epochs=3)
    train(bundle, _toy_dataset(), SCHEDULE, cfg3, loss_path=path)
    cfg5 = _tiny_train_config(epochs=5)
    train(bundle, _toy_dataset(), SCHEDULE, cfg5, loss_path=path, start_epoch=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,recon,latent,entropy,total"
    epochs = [int(l.split(",")[0]) for l in lines[1:]]
    assert epochs == [0, 1, 2, 3, 4]


def test_short_training_reduces_recon_loss(tiny_model_config):
    # smoke-level trend check; the long-horizon version lives in the
    # acceptance suite
    bundle = build_models(tiny_model_config, seed=7)
    clouds = [c * 0.3 for c in _toy_dataset(n_clouds=6, n_points=16, seed=9)]
    cfg = _tiny_train_config(epochs=40, batch_size=3, lr_constant_epochs=40, lr_decay_epochs=1)
    reports = train(bundle, clouds, SCHEDULE, cfg)
    first = np.mean([r.recon for r in reports[:5]])
    last = np.mean([r.recon for r in reports[-5:]])
    assert last < first
