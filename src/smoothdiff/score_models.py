"""Score fields: an analytic Gaussian-mixture oracle and small learned nets.

A score field maps (noisy state, optional latent code, time) to an estimate
of grad log p_t. Three learned networks cover the generative model: a
permutation-invariant point cloud encoder producing a Gaussian posterior over
the latent code, a per-point conditional score net for the decoder, and a
score net for the latent prior. The two score nets are one residual MLP over
rows of (state, time embedding): the decoder runs one row per point with the
latent code joining every block, the latent prior runs its code as a single
row with no conditioning. All parameters live in flat float64 vectors and
every network implements explicit reverse-mode backprop, so gradients are
checkable against finite differences without a framework dependency.
"""

import abc
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InvalidInputError, InvalidParameterError, UnsupportedModeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 4.0


def silu(x):
    """Sigmoid-weighted linear unit, x * sigmoid(x); smooth (C^inf)."""
    return x * expit(x)


def silu_grad(x):
    s = expit(x)
    return s * (1.0 + x * (1.0 - s))


def time_embedding(t, dim):
    """Sinusoidal embedding of a scalar time with geometric frequencies."""
    if dim % 2 != 0:
        raise InvalidParameterError("time embedding dimension must be even")
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


class _Layout:
    """Registry of named parameter slots inside one flat vector."""

    def __init__(self):
        self.slots = {}
        self.size = 0

    def add(self, name, shape):
        n = int(np.prod(shape))
        self.slots[name] = (self.size, shape)
        self.size += n

    def view(self, params, name):
        off, shape = self.slots[name]
        return params[off : off + int(np.prod(shape))].reshape(shape)


def _make_params(layout, params, rng, zero_names=()):
    """Validated copy of params, or a fresh draw from rng (default seed 0).

    The fresh draw is He-style: weights N(0, 1/fan_in), biases zero, and the
    slots listed in zero_names zero.
    """
    if params is not None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (layout.size,):
            raise InvalidInputError(
                f"expected {layout.size} parameters, got {params.shape}"
            )
        return params.copy()
    rng = rng if rng is not None else np.random.default_rng(0)
    params = np.zeros(layout.size)
    for name, (off, shape) in layout.slots.items():
        if name in zero_names or len(shape) == 1:
            continue
        fan_in = shape[1]
        block = rng.standard_normal(shape) / np.sqrt(fan_in)
        params[off : off + block.size] = block.ravel()
    return params


class ScoreField(abc.ABC):
    """Evaluation contract: (state, latent code or None, time) -> score.

    Output shape equals the state shape. Fields that can differentiate their
    output with respect to the state override input_vjp; the default raises,
    which is how the sampler detects unsupported exact-chain guidance.
    """

    @abc.abstractmethod
    def evaluate(self, xt, z, t):
        ...

    def input_vjp(self, xt, z, t, upstream):
        """Vector-Jacobian product upstream^T d(score)/d(xt)."""
        raise UnsupportedModeError(
            f"{type(self).__name__} does not provide input gradients"
        )


class GaussianMixtureScore(ScoreField):
    """Closed-form score of a VP-perturbed isotropic Gaussian mixture.

    If p_0 is sum_k w_k N(mu_k, sigma0^2 I), the perturbed marginal at time t
    is sum_k w_k N(a_t mu_k, (a_t^2 sigma0^2 + b_t^2) I), so the score (and its
    Jacobian) are exact. Serves as the analytic oracle for the sampler.
    """

    def __init__(self, means, sigma0, weights, schedule):
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.shape[0] != means.shape[0]:
            raise InvalidParameterError("need one weight per mixture component")
        if np.any(weights <= 0):
            raise InvalidParameterError("mixture weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("mixture weights must sum to 1")
        if sigma0 <= 0:
            raise InvalidParameterError("sigma0 must be positive")
        self.means = means
        self.sigma0 = float(sigma0)
        self.weights = weights
        self.schedule = schedule

    def _moments(self, t):
        a = self.schedule.drift_coef(t)
        b = self.schedule.diffusion_std(t)
        return a * self.means, a * a * self.sigma0 ** 2 + b * b

    def _responsibilities(self, xt, t):
        m, var = self._moments(t)
        diff = xt[:, None, :] - m[None, :, :]  # (N, K, D)
        logits = np.log(self.weights)[None, :] - np.sum(diff * diff, axis=-1) / (2.0 * var)
        logits -= logits.max(axis=1, keepdims=True)
        gamma = np.exp(logits)
        gamma /= gamma.sum(axis=1, keepdims=True)
        return gamma, m, var

    def evaluate(self, xt, z, t):
        xt = np.asarray(xt, dtype=np.float64)
        squeeze = xt.ndim == 1
        if squeeze:
            xt = xt[None, :]
        gamma, m, var = self._responsibilities(xt, t)
        score = (gamma @ m - xt) / var
        return score[0] if squeeze else score

    def input_vjp(self, xt, z, t, upstream):
        # Per-point Hessian of log p_t: -I/var + sum_k gamma_k s_k s_k^T - s s^T
        # with s_k = (m_k - x)/var; symmetric, so the VJP is H @ upstream.
        xt = np.asarray(xt, dtype=np.float64)
        upstream = np.asarray(upstream, dtype=np.float64)
        squeeze = xt.ndim == 1
        if squeeze:
            xt, upstream = xt[None, :], upstream[None, :]
        gamma, m, var = self._responsibilities(xt, t)
        s_k = (m[None, :, :] - xt[:, None, :]) / var  # (N, K, D)
        s = np.einsum("nk,nkd->nd", gamma, s_k)
        sk_g = np.einsum("nkd,nd->nk", s_k, upstream)
        out = (
            -upstream / var
            + np.einsum("nk,nk,nkd->nd", gamma, sk_g, s_k)
            - s * np.sum(s * upstream, axis=1, keepdims=True)
        )
        return out[0] if squeeze else out


class _ResidualMlp(ScoreField):
    """Residual MLP over rows of (state, time embedding), shared by both score nets.

    Each row runs through an input layer, n_blocks residual blocks
    h + W2 silu(W1 [h, code] + b1) + b2 and an output layer. The conditioning
    code (cond_dim entries; none when cond_dim is 0) joins the input of every
    block. The output layer starts at zero, so a fresh net's score is
    identically zero. Parameter slots, in order: in_w, in_b, then b{k}_w1,
    b{k}_b1, b{k}_w2, b{k}_b2 per block, then out_w, out_b; this order is the
    checkpoint format.
    """

    def __init__(self, latent_dim, width, n_blocks, temb_dim, params, rng,
                 state_dim, cond_dim):
        if latent_dim < 1 or width < 1 or n_blocks < 1:
            raise InvalidParameterError("latent_dim, width, n_blocks must be >= 1")
        self.latent_dim = int(latent_dim)
        self.width = int(width)
        self.n_blocks = int(n_blocks)
        self.temb_dim = int(temb_dim)
        self.state_dim = int(state_dim)
        self.cond_dim = int(cond_dim)

        w = self.width
        lay = _Layout()
        lay.add("in_w", (w, self.state_dim + self.temb_dim))
        lay.add("in_b", (w,))
        for k in range(self.n_blocks):
            lay.add(f"b{k}_w1", (w, w + self.cond_dim))
            lay.add(f"b{k}_b1", (w,))
            lay.add(f"b{k}_w2", (w, w))
            lay.add(f"b{k}_b2", (w,))
        lay.add("out_w", (self.state_dim, w))
        lay.add("out_b", (self.state_dim,))
        self.layout = lay
        self.params = _make_params(lay, params, rng, zero_names=("out_w",))

    @property
    def n_params(self):
        return self.layout.size

    def _p(self, name):
        return self.layout.view(self.params, name)

    def _forward_rows(self, state, code, t):
        """Scores for state rows (R, state_dim) under code (cond_dim,)."""
        n = state.shape[0]
        temb = time_embedding(t, self.temb_dim)
        inp = np.concatenate([state, np.tile(temb, (n, 1))], axis=1)
        h = inp @ self._p("in_w").T + self._p("in_b")
        code_rows = np.tile(code, (n, 1))
        hs, pres, acts = [h], [], []
        for k in range(self.n_blocks):
            u = np.concatenate([h, code_rows], axis=1)
            pre = u @ self._p(f"b{k}_w1").T + self._p(f"b{k}_b1")
            act = silu(pre)
            h = h + act @ self._p(f"b{k}_w2").T + self._p(f"b{k}_b2")
            hs.append(h)
            pres.append(pre)
            acts.append(act)
        out = h @ self._p("out_w").T + self._p("out_b")
        return out, (inp, code, hs, pres, acts)

    def _backward_rows(self, cache, upstream):
        """Backprop an (R, state_dim) upstream gradient.

        Returns (flat parameter gradient, d/d state rows, d/d code).
        """
        inp, code, hs, pres, acts = cache
        w = self.width
        g = np.zeros(self.layout.size)

        def acc(name, value):
            self.layout.view(g, name)[...] = value

        acc("out_w", upstream.T @ hs[-1])
        acc("out_b", upstream.sum(axis=0))
        dh = upstream @ self._p("out_w")
        dcode = np.zeros(self.cond_dim)
        code_rows = np.tile(code, (inp.shape[0], 1))
        for k in reversed(range(self.n_blocks)):
            u = np.concatenate([hs[k], code_rows], axis=1)
            acc(f"b{k}_b2", dh.sum(axis=0))
            acc(f"b{k}_w2", dh.T @ acts[k])
            dpre = (dh @ self._p(f"b{k}_w2")) * silu_grad(pres[k])
            acc(f"b{k}_b1", dpre.sum(axis=0))
            acc(f"b{k}_w1", dpre.T @ u)
            du = dpre @ self._p(f"b{k}_w1")
            dh = dh + du[:, :w]
            dcode += du[:, w:].sum(axis=0)
        acc("in_w", dh.T @ inp)
        acc("in_b", dh.sum(axis=0))
        dstate = (dh @ self._p("in_w"))[:, : self.state_dim]
        return g, dstate, dcode

    @abc.abstractmethod
    def _field_forward(self, xt, z, t):
        """forward() reached through the ScoreField arguments (xt, z, t)."""

    def evaluate(self, xt, z, t):
        return self._field_forward(xt, z, t)[0]

    def input_vjp(self, xt, z, t, upstream):
        _, cache = self._field_forward(xt, z, t)
        return self.backward(cache, np.asarray(upstream, dtype=np.float64))[1]


class MlpScoreNet(_ResidualMlp):
    """Per-point conditional score network for the decoder.

    Each point is one row of the residual MLP: its coordinates with a
    sinusoidal time embedding, and the latent code joining every block.
    Sharing the network across points makes the field
    permutation-equivariant.
    """

    def __init__(self, latent_dim, width=256, n_blocks=6, temb_dim=64,
                 params=None, rng=None):
        super().__init__(latent_dim, width, n_blocks, temb_dim, params, rng,
                         state_dim=3, cond_dim=latent_dim)

    def forward(self, xt, z, t):
        xt = np.asarray(xt, dtype=np.float64)
        if xt.ndim != 2 or xt.shape[1] != 3:
            raise InvalidInputError(f"xt must be (N, 3), got {xt.shape}")
        if z is None:
            raise InvalidInputError("decoder score net requires a latent code")
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.latent_dim,):
            raise InvalidInputError(
                f"latent code must have dimension {self.latent_dim}, got {z.shape}"
            )
        return self._forward_rows(xt, z, t)

    def backward(self, cache, upstream):
        """Backprop an (N, 3) upstream gradient.

        Returns (flat parameter gradient, d/d xt, d/d z).
        """
        return self._backward_rows(cache, upstream)

    def _field_forward(self, xt, z, t):
        return self.forward(xt, z, t)


class PointEncoder:
    """Permutation-invariant encoder producing q(z | X) = N(mean, diag var).

    A shared per-point MLP feeds a feature-wise max pool; linear heads on the
    pooled feature give the posterior mean and (clamped) log-variance.
    """

    def __init__(self, latent_dim, feature_width=256, params=None, rng=None):
        if latent_dim < 1 or feature_width < 2:
            raise InvalidParameterError("latent_dim and feature_width must be positive")
        self.latent_dim = int(latent_dim)
        self.feature_width = int(feature_width)
        half = self.feature_width // 2

        lay = _Layout()
        lay.add("w1", (half, 3))
        lay.add("b1", (half,))
        lay.add("w2", (self.feature_width, half))
        lay.add("b2", (self.feature_width,))
        lay.add("w3", (self.feature_width, self.feature_width))
        lay.add("b3", (self.feature_width,))
        lay.add("mean_w", (self.latent_dim, self.feature_width))
        lay.add("mean_b", (self.latent_dim,))
        lay.add("logvar_w", (self.latent_dim, self.feature_width))
        lay.add("logvar_b", (self.latent_dim,))
        self.layout = lay
        self.params = _make_params(lay, params, rng)

    @property
    def n_params(self):
        return self.layout.size

    def _p(self, name):
        return self.layout.view(self.params, name)

    def forward(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"points must be (N, 3), got {pts.shape}")
        a1 = pts @ self._p("w1").T + self._p("b1")
        h1 = silu(a1)
        a2 = h1 @ self._p("w2").T + self._p("b2")
        h2 = silu(a2)
        a3 = h2 @ self._p("w3").T + self._p("b3")
        h3 = silu(a3)
        argmax = np.argmax(h3, axis=0)
        pooled = h3[argmax, np.arange(h3.shape[1])]
        mean = pooled @ self._p("mean_w").T + self._p("mean_b")
        raw = pooled @ self._p("logvar_w").T + self._p("logvar_b")
        logvar = np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)
        cache = (pts, a1, h1, a2, h2, a3, h3, argmax, pooled, raw)
        return mean, logvar, cache

    def backward(self, cache, dmean, dlogvar):
        """Backprop upstream gradients of (mean, logvar) to the parameters."""
        pts, a1, h1, a2, h2, a3, h3, argmax, pooled, raw = cache
        g = np.zeros(self.layout.size)

        def acc(name, value):
            self.layout.view(g, name)[...] = value

        dlogvar = np.where((raw > LOGVAR_MIN) & (raw < LOGVAR_MAX), dlogvar, 0.0)
        acc("mean_w", np.outer(dmean, pooled))
        acc("mean_b", dmean)
        acc("logvar_w", np.outer(dlogvar, pooled))
        acc("logvar_b", dlogvar)
        dpooled = dmean @ self._p("mean_w") + dlogvar @ self._p("logvar_w")
        dh3 = np.zeros_like(h3)
        dh3[argmax, np.arange(h3.shape[1])] = dpooled
        da3 = dh3 * silu_grad(a3)
        acc("w3", da3.T @ h2)
        acc("b3", da3.sum(axis=0))
        da2 = (da3 @ self._p("w3")) * silu_grad(a2)
        acc("w2", da2.T @ h1)
        acc("b2", da2.sum(axis=0))
        da1 = (da2 @ self._p("w2")) * silu_grad(a1)
        acc("w1", da1.T @ pts)
        acc("b1", da1.sum(axis=0))
        return g


def reparameterize(mean, logvar, noise):
    """Draw z = mean + exp(logvar / 2) * noise with caller-supplied noise."""
    mean = np.asarray(mean, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    return mean + np.exp(0.5 * logvar) * noise


class LatentScoreNet(_ResidualMlp):
    """Score network for the latent prior: the code is one unconditioned row."""

    def __init__(self, latent_dim, width=128, n_blocks=3, temb_dim=64,
                 params=None, rng=None):
        super().__init__(latent_dim, width, n_blocks, temb_dim, params, rng,
                         state_dim=latent_dim, cond_dim=0)

    def forward(self, zt, t):
        zt = np.asarray(zt, dtype=np.float64)
        if zt.shape != (self.latent_dim,):
            raise InvalidInputError(
                f"latent state must have dimension {self.latent_dim}, got {zt.shape}"
            )
        out, cache = self._forward_rows(zt[None, :], np.zeros(0), t)
        return out[0], cache

    def backward(self, cache, upstream):
        """Backprop a (d,) upstream gradient; returns (flat grads, d/d zt)."""
        upstream = np.asarray(upstream, dtype=np.float64)
        g, dzt, _ = self._backward_rows(cache, upstream[None, :])
        return g, dzt[0]

    def _field_forward(self, xt, z, t):
        if z is not None:
            raise InvalidInputError("latent score net takes no conditioning code")
        return self.forward(xt, t)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for the three networks."""

    latent_dim: int = 64
    decoder_width: int = 256
    decoder_blocks: int = 6
    temb_dim: int = 64
    encoder_width: int = 256
    latent_width: int = 128
    latent_blocks: int = 3


@dataclass
class ModelBundle:
    """The trained trio: encoder, decoder score net, latent score net."""

    encoder: PointEncoder
    decoder: MlpScoreNet
    latent: LatentScoreNet

    def __post_init__(self):
        dims = {self.encoder.latent_dim, self.decoder.latent_dim, self.latent.latent_dim}
        if len(dims) != 1:
            raise InvalidInputError(f"inconsistent latent dimensions: {dims}")

    @property
    def latent_dim(self):
        return self.encoder.latent_dim


def build_models(config, seed=0):
    """Construct a freshly initialized ModelBundle from a ModelConfig."""
    seqs = np.random.SeedSequence(seed).spawn(3)
    encoder = PointEncoder(
        config.latent_dim,
        feature_width=config.encoder_width,
        rng=np.random.default_rng(seqs[0]),
    )
    decoder = MlpScoreNet(
        config.latent_dim,
        width=config.decoder_width,
        n_blocks=config.decoder_blocks,
        temb_dim=config.temb_dim,
        rng=np.random.default_rng(seqs[1]),
    )
    latent = LatentScoreNet(
        config.latent_dim,
        width=config.latent_width,
        n_blocks=config.latent_blocks,
        temb_dim=config.temb_dim,
        rng=np.random.default_rng(seqs[2]),
    )
    return ModelBundle(encoder=encoder, decoder=decoder, latent=latent)
