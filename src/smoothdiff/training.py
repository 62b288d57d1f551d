"""Joint training of encoder, decoder score net, and latent score net.

One denoising step per cloud per epoch: draw a single diffusion time, perturb
both the cloud and its reparameterized latent code, and regress both score
nets against the conditional score targets. The objective per cloud is

    recon + latent - entropy

where the two denoising terms carry the g(t)^2 / 2 likelihood weighting and
the entropy of the Gaussian posterior keeps the encoder from collapsing.
Optimization is plain Adam over three flat parameter vectors, one per
network, each with its own learning rate.

Precision. Training is mixed precision (Micikevicius et al., "Mixed
Precision Training", ICLR 2018, with float32 in place of float16 and no
loss scaling): each batch runs the decoder's and the encoder's forward and
backward passes on float32 copies of their parameters, made after the
previous Adam step and dropped before the next, while the parameters, the
gradient buffers and the Adam moments stay float64. The encoder's pooled
feature and heads stay float64. Its float32 max pool picks its own rows,
which on a near-tie can differ from the float64 pass's: 2 of 52,224 picks
on the acceptance and benchmark tori. The latent net runs in float64. The
public recon_dsm_loss and latent_dsm_loss evaluate in float64.

Memory. A step holds the parameters, one gradient buffer per network and
Adam's moments, all float64, and the float32 copies of the decoder and the
encoder. Of a cloud it keeps one decoder row block at a time: _dsm scores
the cloud in blocks of at most _TRAIN_ROWS points, each forward keeping the
cache backward reads (block inputs, SiLU outputs and SiLU slopes of every
residual block), and each backward runs and drops that cache before the
next block. The encoder's forward runs every point at once in float32, and
its cache keeps its pooled rows only. Adam steps in blocks of _ADAM_BLOCK
elements.
"""

import csv
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalAbortError
from .geometry import _as_points
from .pointio import _atomic_open
from .score_models import reparameterize

LOG_2PI = float(np.log(2.0 * np.pi))

# Elements per block of Adam's step: two float64 temporaries of this size,
# 128 KB each, are all it allocates, whatever the vector's length.
_ADAM_BLOCK = 16384

# Rows per block of the decoder's training passes. One block's float32
# cache, 3 n_blocks + 1 arrays of 512 x width, is all that training keeps
# of a cloud at a time: 10 MB for the desk decoder, against 38 MB for a
# whole 2048-point cloud. Float32 forward plus backward of that cloud, desk
# decoder, one BLAS thread, 2-vCPU VM, medians of 7 in two runs: whole
# cloud 121 and 137 ms; blocks of 1024 rows 114 and 136 ms, 512 rows 107
# and 126 ms, 256 rows 116 and 131 ms, 128 rows 147 and 155 ms.
_TRAIN_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 32
    lr_encoder: float = 2e-3
    lr_decoder: float = 2e-4
    lr_latent: float = 1e-4
    seed: int = 0
    # Sampling times below t_floor make the 1/b(t)^2 target variance explode.
    t_floor: float = 1e-3
    lr_constant_epochs: int = 1000
    lr_decay_epochs: int = 1000

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidParameterError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        for name in ("lr_encoder", "lr_decoder", "lr_latent"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if not 0.0 < self.t_floor < 1.0:
            raise InvalidParameterError("t_floor must lie in (0, 1)")
        if self.lr_constant_epochs < 0 or self.lr_decay_epochs < 1:
            raise InvalidParameterError("invalid learning-rate schedule lengths")


@dataclass(frozen=True)
class LossReport:
    epoch: int
    recon: float
    latent: float
    entropy: float

    @property
    def total(self):
        return self.recon + self.latent - self.entropy


class Adam(object):
    """Standard Adam with bias correction, acting on one flat vector."""

    def __init__(self, n_params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params, grad, lr_scale=1.0):
        # In place, rounding each element as m = b1 m + (1 - b1) g,
        # v = b2 v + ((1 - b2) g) g, params -= ((lr s) m_hat) / (sqrt(v_hat) + eps).
        # Every operation is element-wise, so running them block by block
        # gives the same bits with two block-sized temporaries.
        self.t += 1
        k1, k2 = 1.0 - self.beta1, 1.0 - self.beta2
        c1, c2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        lr = self.lr * lr_scale
        size = params.size
        num_buf, den_buf = np.empty(min(size, _ADAM_BLOCK)), np.empty(min(size, _ADAM_BLOCK))
        for lo in range(0, size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, size)
            m, v, g = self.m[lo:hi], self.v[lo:hi], grad[lo:hi]
            num, den = num_buf[: hi - lo], den_buf[: hi - lo]
            np.multiply(k1, g, out=num)
            m *= self.beta1
            m += num
            v *= self.beta2
            np.multiply(k2, g, out=den)
            den *= g
            v += den
            np.divide(m, c1, out=num)
            num *= lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            params[lo:hi] -= num


def lr_factor(epoch, constant_epochs, decay_epochs):
    """Learning-rate multiplier: flat, then linear decay toward zero."""
    if epoch < constant_epochs:
        return 1.0
    return max(0.0, 1.0 - (epoch - constant_epochs) / float(decay_epochs))


def _dsm(score, x0, t, noise, schedule, backward=None, rows=None):
    """Denoising score matching at time t: the one loss path of training.

    score(xt) returns the net's score at xt = a(t) x0 + b(t) noise and a
    backward cache. The target is the conditional score -noise / b(t). The
    loss is g(t)^2 / 2 times the squared residual norm, averaged over the
    points axis when there is one. A points axis is scored in blocks of at
    most rows rows (all at once by default), and backward(cache, d loss /
    d score of the block) runs before the next block is scored, so one
    block's cache is alive at a time. The loss is taken from the whole
    residual array. Returns (loss, backward's return for each block, in row
    order; empty without backward).
    """
    b = schedule.diffusion_std(t)
    g2 = schedule.beta(t)
    xt = schedule.perturb(x0, t, noise)
    pulled = []
    if xt.ndim == 1:
        s, cache = score(xt)
        resid = s - -noise / b
        if backward is not None:
            pulled.append(backward(cache, g2 * resid))
        return 0.5 * g2 * float(np.dot(resid, resid)), pulled
    n = xt.shape[0]
    resid = np.empty(xt.shape)
    step = rows or max(n, 1)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        s, cache = score(xt[block])
        resid[block] = s - -noise[block] / b
        if backward is not None:
            pulled.append(backward(cache, (g2 / n) * resid[block]))
        del cache  # so that it is not held through the next block's forward
    loss = 0.5 * g2 * float(np.mean(np.sum(resid * resid, axis=-1)))
    return loss, pulled


def recon_dsm_loss(net, x0, z, t, noise, schedule):
    """Denoising score-matching loss for the conditional point score net.

    Perturbs x0 to time t with the given noise, regresses the net's score
    against the conditional target, weights by g(t)^2 / 2, and averages the
    per-point squared residual norms.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    return _dsm(lambda xt: (np.asarray(net.evaluate(xt, z, t), dtype=np.float64), None),
                x0, t, noise, schedule)[0]


def latent_dsm_loss(net, z0, t, noise, schedule):
    """Denoising score-matching loss along the d-dimensional latent path.

    Same construction as recon_dsm_loss but the whole code is one sample, so
    the squared residual norm is not averaged over a points axis.
    """
    return recon_dsm_loss(net, z0, None, t, noise, schedule)


def entropy_term(mean, logvar):
    """Differential entropy of N(mean, diag exp(logvar)), closed form."""
    logvar = np.asarray(logvar, dtype=np.float64)
    return 0.5 * float(np.sum(logvar + LOG_2PI + 1.0))


def _cloud_losses(bundle, points, schedule, config, rng, grads, decoder_weights=None,
                  encoder_weights=None):
    """Forward and backward for one cloud; returns (recon, latent, entropy).

    grads is the (encoder, decoder, latent) triple of flat gradient buffers;
    each backward pass adds this cloud's parameter gradient into its buffer,
    so a batch sums its clouds' gradients with no per-cloud copy. The
    decoder's forward, and so its backward, run on decoder_weights, and the
    encoder's on encoder_weights, each a flat vector in its net's layout
    (its float64 params by default). The decoder runs in blocks of at most
    _TRAIN_ROWS points: each block's forward keeps backward's cache, and its
    backward runs and drops it before the next block's forward. A cloud of
    at most _TRAIN_ROWS points is one block, so it rounds as a whole-cloud
    pass does.
    """
    n = points.shape[0]
    d = bundle.latent_dim
    acc_enc, acc_dec, acc_lat = grads

    t = rng.uniform(config.t_floor, 1.0)
    eps_z = rng.standard_normal(d)
    noise_x = rng.standard_normal((n, 3))
    noise_z = rng.standard_normal(d)

    mean, logvar, enc_cache = bundle.encoder.forward(points, params=encoder_weights)
    z0 = reparameterize(mean, logvar, eps_z)
    loss_x, dz_dec = _dsm(
        lambda xt: bundle.decoder.forward(xt, z0, t, params=decoder_weights),
        points, t, noise_x, schedule,
        lambda cache, ds: bundle.decoder.backward(cache, ds, out=acc_dec)[2],
        _TRAIN_ROWS,
    )
    loss_z, (dzt,) = _dsm(
        lambda zt: bundle.latent.forward(zt, t), z0, t, noise_z, schedule,
        lambda cache, ds: bundle.latent.backward(cache, ds, out=acc_lat)[1],
    )
    ent = entropy_term(mean, logvar)

    dz0 = functools.reduce(np.add, dz_dec) + schedule.drift_coef(t) * dzt
    dmean = dz0
    # d(total)/dlogvar: reparameterization path plus -1/2 from the entropy.
    dlogvar = dz0 * eps_z * 0.5 * np.exp(0.5 * logvar) - 0.5
    bundle.encoder.backward(enc_cache, dmean, dlogvar, out=acc_enc)

    return loss_x, loss_z, ent


def train_step(bundle, batch, schedule, config, rng, optimizers, lr_scale=1.0,
               epoch=0):
    """One optimization step over a batch of clouds.

    Per-cloud random draws happen in batch order from the supplied generator,
    so a fixed seed fixes the whole step. Each cloud's backward passes add
    into one gradient buffer per network, which is divided by the batch size
    in place, and the three averages are applied with independent Adam
    states (encoder, decoder, latent), each scaled by lr_scale. The step
    holds no per-cloud parameter-sized vector, and of a cloud's decoder
    passes one row block's cache at a time. The decoder's and the encoder's
    passes run on float32 copies of their parameters, made after the
    previous Adam step and dropped before this one.
    """
    if len(batch) == 0:
        raise InvalidInputError("batch must contain at least one cloud")
    n_b = len(batch)
    sums = np.zeros(3)
    nets = (bundle.encoder, bundle.decoder, bundle.latent)
    grads = tuple(np.zeros(net.n_params) for net in nets)
    dec_weights = bundle.decoder.params.astype(np.float32)
    enc_weights = bundle.encoder.params.astype(np.float32)
    for cloud in batch:
        sums += _cloud_losses(bundle, _as_points(cloud), schedule, config, rng, grads,
                              dec_weights, enc_weights)
    del dec_weights, enc_weights
    sums /= n_b
    if not np.all(np.isfinite(sums)):
        raise NumericalAbortError(
            f"non-finite loss at epoch {epoch}: recon={sums[0]}, "
            f"latent={sums[1]}, entropy={sums[2]}"
        )
    for name, net, grad in zip(("encoder", "decoder", "latent"), nets, grads):
        grad /= n_b
        optimizers[name].step(net.params, grad, lr_scale)
    return LossReport(
        epoch=epoch, recon=float(sums[0]), latent=float(sums[1]), entropy=float(sums[2])
    )


def make_optimizers(bundle, config):
    return {
        "encoder": Adam(bundle.encoder.n_params, config.lr_encoder),
        "decoder": Adam(bundle.decoder.n_params, config.lr_decoder),
        "latent": Adam(bundle.latent.n_params, config.lr_latent),
    }


def _write_loss_row(path, report):
    """Rewrite the loss table at path whole: its rows before report's epoch, then report's row.

    So a resume from an older checkpoint replaces the rows of the epochs it
    redoes. Rows whose first field is not an epoch number, the header among
    them, are dropped; the header is written anew.
    """
    kept = []
    if report.epoch > 0 and os.path.exists(path):
        with open(path, newline="") as fh:
            kept = [row for row in csv.reader(fh)
                    if row and row[0].isdigit() and int(row[0]) < report.epoch]
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "recon", "latent", "entropy", "total"])
        writer.writerows(kept)
        writer.writerow([report.epoch, repr(report.recon), repr(report.latent),
                         repr(report.entropy), repr(report.total)])


def train(bundle, dataset, schedule, config, loss_path=None, start_epoch=0,
          log_every=0):
    """Run epochs start_epoch..config.epochs-1, mutating bundle in place.

    Each epoch reshuffles the dataset under a per-epoch generator derived
    from (config.seed, epoch), so resuming at an epoch boundary replays the
    exact noise stream a fresh run would have used (optimizer moments do
    restart from zero on resume). After each epoch loss_path is rewritten
    whole with the rows of the epochs before it and that epoch's row.
    Returns the list of per-epoch LossReports produced by this call.
    """
    if len(dataset) < 2:
        raise InvalidInputError("training needs at least two clouds")
    sizes = {len(_as_points(c)) for c in dataset}
    if len(sizes) != 1:
        raise InvalidInputError(f"clouds must share one point count, got {sizes}")
    if not 0 <= start_epoch < config.epochs:
        raise InvalidParameterError(
            f"start_epoch {start_epoch} outside [0, {config.epochs})"
        )

    optimizers = make_optimizers(bundle, config)
    reports = []
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, epoch)))
        perm = rng.permutation(len(dataset))
        scale = lr_factor(epoch, config.lr_constant_epochs, config.lr_decay_epochs)
        epoch_sums = np.zeros(3)
        for lo in range(0, len(perm), config.batch_size):
            batch = [dataset[i] for i in perm[lo : lo + config.batch_size]]
            rep = train_step(
                bundle, batch, schedule, config, rng, optimizers, scale, epoch
            )
            epoch_sums += np.array([rep.recon, rep.latent, rep.entropy]) * len(batch)
        epoch_sums /= len(dataset)
        report = LossReport(
            epoch=epoch,
            recon=float(epoch_sums[0]),
            latent=float(epoch_sums[1]),
            entropy=float(epoch_sums[2]),
        )
        reports.append(report)
        if loss_path is not None:
            _write_loss_row(loss_path, report)
        if log_every and (epoch % log_every == 0 or epoch == config.epochs - 1):
            print(
                f"epoch {epoch}: recon={report.recon:.4f} latent={report.latent:.4f} "
                f"entropy={report.entropy:.4f} total={report.total:.4f}"
            )
    return reports
