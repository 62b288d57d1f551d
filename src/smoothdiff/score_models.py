"""Score fields: an analytic Gaussian-mixture oracle and small learned nets.

A score field maps (noisy state, optional latent code, time) to an estimate
of grad log p_t. Three learned networks cover the generative model: a
permutation-invariant point cloud encoder producing a Gaussian posterior over
the latent code, a per-point conditional score net for the decoder, and a
score net for the latent prior. The two score nets are one residual MLP over
rows of (state, time embedding): the decoder runs one row per point with the
latent code joining every block, the latent prior runs its code as a single
row with no conditioning. The time embedding and the code are the same in
every row, so their products with the input and block weights are formed
once per call as width-long vectors. SiLU takes its sigmoid as
0.5 + 0.5 tanh(x / 2). A forward pass keeps one of three caches, and
gives the same scores bit for bit with each. keep=True, training's pass,
keeps backward's: (state, time embedding, code, block inputs h, sigmoids,
SiLU outputs, the weight vector it ran on), 3 n_blocks + 1 row arrays.
keep="vjp" keeps only what input_vjp reads, each block's sigmoids and
SiLU outputs and the weight vector, 2 n_blocks row arrays, and updates h
in place; step_scorer passes it on a guided exact-chain step, whose
input_vjp reuses that cache, and input_vjp passes it when given no cache.
keep=False, evaluate's pass, keeps nothing and reuses two row buffers
across the blocks.

Precision. One rule: forward runs its rows in the dtype of the weights it
is given (params=, self.params by default), and its cache names those
weights, so input_vjp and backward on that cache run in the same dtype. The
row-constant terms (time-embedding and code columns, their parameter
gradients and d/d code) are formed in float64 from self.params, and scores
and gradients come back as float64; on float64 weights every cast is a
no-op. Two callers pass a float32 copy. The reverse chain scores every step
with step_scorer, cast once per chain, and a guided exact-chain step hands
that forward's cache to input_vjp. Training casts the decoder's parameters
once per batch and backpropagates through its float32 caches into float64
gradient buffers. Everything else is float64: evaluate, input_vjp without
a cache, backward on a float64 cache, and the encoder. Finite-difference
checks difference evaluate, the exact-chain gradient of
sampler.constraint_gradient called without a score, and the float64
training losses, at steps float32 rounding would swamp.

The encoder's max pool reads one row per feature, so its cache is (pts, s1,
h1, s2, h2, s3, h3) at the pooled rows only, at most min(N, feature_width)
of them, with each feature's index into those rows, the pooled feature and
the unclipped log-variance; its backward pass runs on those rows. All
parameters live in flat float64 vectors and every network implements
explicit reverse-mode backprop, so gradients are checkable against finite
differences without a framework dependency. Each backward pass adds its
parameter gradient into a caller's flat buffer when given one as out
(training sums a batch that way), and into a fresh zero vector otherwise.
"""

import abc
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, UnsupportedModeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 4.0


def _silu_inplace(x, out=None):
    """Overwrite x with SiLU x * sigmoid(x); return sigmoid(x) for backward.

    The sigmoid is 0.5 + 0.5 tanh(x / 2), written into out when one is given.
    """
    sig = np.multiply(x, 0.5, out=out)
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    x *= sig
    return sig


def _silu_slope(sig, act):
    """SiLU derivative s (1 + x (1 - s)) = s + act (1 - s) from the cache."""
    slope = 1.0 - sig
    slope *= act
    slope += sig
    return slope


def time_embedding(t, dim):
    """Sinusoidal embedding of a scalar time with geometric frequencies."""
    if dim % 2 != 0:
        raise InvalidParameterError("time embedding dimension must be even")
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


class _Layout:
    """Registry of named parameter slots inside one flat vector.

    slots maps each name to (offset, shape); the sizes are kept beside them
    so that view, called a few times per forward pass, computes none.
    """

    def __init__(self):
        self.slots = {}
        self._sizes = {}
        self.size = 0

    def add(self, name, shape):
        n = int(np.prod(shape))
        self.slots[name] = (self.size, shape)
        self._sizes[name] = n
        self.size += n

    def view(self, params, name):
        off, shape = self.slots[name]
        return params[off : off + self._sizes[name]].reshape(shape)


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
    for name, (_, shape) in layout.slots.items():
        if name in zero_names or len(shape) == 1:
            continue
        slot = layout.view(params, name)
        rng.standard_normal(out=slot)
        slot /= np.sqrt(shape[1])  # fan_in
    return params


class ScoreField(abc.ABC):
    """Evaluation contract: (state, latent code or None, time) -> score.

    Three members: evaluate, input_vjp and step_scorer. Output shape equals
    the state shape. Fields that can differentiate their output with respect
    to the state override input_vjp; the default raises, which is how the
    sampler detects unsupported exact-chain guidance.
    """

    @abc.abstractmethod
    def evaluate(self, xt, z, t):
        ...

    def step_scorer(self):
        """(xt, z, t, keep=False) -> (score, cache or None) for one reverse chain.

        The chain calls it on every step, with keep=True on guided
        exact-chain steps, and hands the cache to input_vjp at the same
        point. By default it returns (evaluate(xt, z, t), None).
        """

        def score(xt, z, t, keep=False):
            return self.evaluate(xt, z, t), None

        return score

    def input_vjp(self, xt, z, t, upstream, cache=None):
        """Vector-Jacobian product upstream^T d(score)/d(xt).

        cache, when not None, is the one step_scorer returned at the same
        point.
        """
        raise UnsupportedModeError(
            f"{type(self).__name__} does not provide input gradients"
        )


class GaussianMixtureScore(ScoreField):
    """Closed-form score of a VP-perturbed isotropic Gaussian mixture.

    If p_0 is sum_k w_k N(mu_k, sigma0^2 I), the perturbed marginal at time t
    is sum_k w_k N(a_t mu_k, (a_t^2 sigma0^2 + b_t^2) I), so the score (and its
    Jacobian) are exact. Serves as the analytic oracle for the sampler. It
    keeps no cache: evaluate and input_vjp each compute the responsibilities.
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

    def input_vjp(self, xt, z, t, upstream, cache=None):
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
    block; its columns of W1, like the time-embedding columns of in_w, are
    applied once per call, as width-long vectors added to every row. The
    output layer starts at zero, so a fresh net's score is identically zero.
    Parameter slots, in order: in_w, in_b, then b{k}_w1, b{k}_b1, b{k}_w2,
    b{k}_b2 per block, then out_w, out_b; this order is the checkpoint format.
    """

    def __init__(self, latent_dim, width, n_blocks, temb_dim, params, rng,
                 state_dim, cond_dim):
        if latent_dim < 1 or width < 1 or n_blocks < 1:
            raise InvalidParameterError("latent_dim, width, n_blocks must be >= 1")
        if temb_dim < 0 or temb_dim % 2:
            raise InvalidParameterError(
                f"temb_dim must be even and >= 0, got {temb_dim}"
            )
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

    def _forward_rows(self, state, code, t, keep=True, params=None):
        """(scores, cache) for state rows (R, state_dim) under code (cond_dim,).

        The row weights are read from params, a flat vector in self.layout
        (self.params by default), and the row arrays take its dtype. The
        row-constant terms and out_b are formed in float64 from self.params
        and cast to that dtype, and the scores come back in float64; on
        float64 weights every cast is a no-op. keep names the cache: True
        keeps backward's (state, time embedding, code, block inputs hs,
        sigmoids, SiLU outputs, weights); "vjp" keeps only what
        _input_vjp_rows reads, (sigmoids, SiLU outputs, weights), and
        updates h in place; False keeps nothing and also reuses one act and
        one sig buffer across the blocks. Either cache ends with the weights,
        so that the passes on it run on the weights the forward ran on. The
        three give the same scores bit for bit: h + W2 a and W2 a + h round
        alike.
        """
        p = self.params if params is None else params
        sd, w, dtype = self.state_dim, self.width, p.dtype
        full = bool(keep) and keep != "vjp"  # backward's cache
        reuse = not keep

        def row_weights(name):
            return self.layout.view(p, name)

        temb = time_embedding(t, self.temb_dim)
        h = state.astype(dtype, copy=False) @ row_weights("in_w")[:, :sd].T
        h += (self._p("in_w")[:, sd:] @ temb + self._p("in_b")).astype(dtype, copy=False)
        hs, sigs, acts = [h], [], []
        act = sig = prod = None
        for k in range(self.n_blocks):
            w1, w2 = row_weights(f"b{k}_w1"), row_weights(f"b{k}_w2")
            act = np.matmul(h, w1[:, :w].T, out=act if reuse else None)
            const = self._p(f"b{k}_w1")[:, w:] @ code + self._p(f"b{k}_b1")
            act += const.astype(dtype, copy=False)
            sig = _silu_inplace(act, out=sig if reuse else None)
            if keep:
                sigs.append(sig)
                acts.append(act)
            if full:
                h = act @ w2.T
                h += hs[-1]
                hs.append(h)
            else:
                # With no cache the sigmoid buffer is free to take the product.
                prod = np.matmul(act, w2.T, out=sig if reuse else prod)
                h += prod
            h += row_weights(f"b{k}_b2")
        out = (h @ row_weights("out_w").T).astype(np.float64, copy=False)
        out += self._p("out_b")
        if full:
            return out, (state, temb, code, hs, sigs, acts, p)
        return out, ((sigs, acts, p) if keep else None)

    def _backward_rows(self, cache, upstream, out=None):
        """Backprop an (R, state_dim) upstream gradient.

        Returns (flat parameter gradient, d/d state rows, d/d code). The
        parameter gradient is added into out, a flat vector of n_params,
        when one is given, and into a fresh zero vector otherwise. Like
        _input_vjp_rows it runs the rows in the dtype of the weights the
        cache names; the code columns of the block weights and the
        time-embedding and code gradients are formed in float64 from
        self.params, and the gradients come back in float64.
        """
        state, temb, code, hs, sigs, acts, p = cache
        sd, w, dtype = self.state_dim, self.width, p.dtype
        g = np.zeros(self.layout.size) if out is None else out

        def weights(name):
            return self.layout.view(p, name)

        def grad(name):
            return self.layout.view(g, name)

        def add(name, value):
            slot = grad(name)
            slot += value

        upstream = upstream.astype(dtype, copy=False)
        add("out_w", upstream.T @ hs[-1])
        add("out_b", upstream.sum(axis=0))
        dh = upstream @ weights("out_w")
        dcode = np.zeros(self.cond_dim)
        for k in reversed(range(self.n_blocks)):
            add(f"b{k}_b2", dh.sum(axis=0))
            add(f"b{k}_w2", dh.T @ acts[k])
            dpre = dh @ weights(f"b{k}_w2")
            dpre *= _silu_slope(sigs[k], acts[k])
            dpre_sum = dpre.sum(axis=0)
            add(f"b{k}_b1", dpre_sum)
            gw1 = grad(f"b{k}_w1")
            gw1[:, :w] += dpre.T @ hs[k]
            gw1[:, w:] += np.outer(dpre_sum, code)
            dh += dpre @ weights(f"b{k}_w1")[:, :w]
            dcode += dpre_sum @ self._p(f"b{k}_w1")[:, w:]
        dh_sum = dh.sum(axis=0)
        gin = grad("in_w")
        gin[:, :sd] += dh.T @ state.astype(dtype, copy=False)
        gin[:, sd:] += np.outer(dh_sum, temb)
        add("in_b", dh_sum)
        drows = dh @ weights("in_w")[:, :sd]
        return g, drows.astype(np.float64, copy=False), dcode

    def _input_vjp_rows(self, cache, upstream):
        """d/d state rows of an (R, state_dim) upstream; no parameter gradient.

        Reads the sigmoids, SiLU outputs and weights that end either kind of
        cache. Runs in the dtype of those weights and returns float64.
        """
        sigs, acts, p = cache[-3:]
        w = self.width

        def weights(name):
            return self.layout.view(p, name)

        dh = upstream.astype(p.dtype, copy=False) @ weights("out_w")
        for k in reversed(range(self.n_blocks)):
            dpre = dh @ weights(f"b{k}_w2")
            dpre *= _silu_slope(sigs[k], acts[k])
            dh += dpre @ weights(f"b{k}_w1")[:, :w]
        rows = dh @ weights("in_w")[:, : self.state_dim]
        return rows.astype(np.float64, copy=False)

    @abc.abstractmethod
    def _field_forward(self, xt, z, t, keep=True, params=None):
        """forward() reached through the ScoreField arguments (xt, z, t)."""

    def evaluate(self, xt, z, t):
        return self._field_forward(xt, z, t, keep=False)[0]

    def step_scorer(self):
        """The forward pass on a float32 copy of the parameters, for both kinds of step.

        keep=False runs the cache-free pass; keep=True keeps, for input_vjp,
        only the rows it reads (each block's sigmoids and SiLU outputs) and
        the float32 weights; backward needs forward's cache. The copy is made
        here, once per reverse chain, so an in-place update of self.params
        (an Adam step) is never read stale, and it is dropped with the
        returned function.
        """
        weights = self.params.astype(np.float32)

        def score(xt, z, t, keep=False):
            return self._field_forward(xt, z, t, keep="vjp" if keep else False,
                                       params=weights)

        return score

    def input_vjp(self, xt, z, t, upstream, cache=None):
        if cache is None:
            cache = self._field_forward(xt, z, t, keep="vjp")[1]
        upstream = np.asarray(upstream, dtype=np.float64)
        rows = self._input_vjp_rows(cache, np.atleast_2d(upstream))
        return rows.reshape(upstream.shape)


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

    def forward(self, xt, z, t, keep=True, params=None):
        """(score, cache) at xt on params (self.params by default).

        keep=True keeps backward's cache, keep=False none; step_scorer and
        input_vjp pass keep="vjp" for the smaller cache input_vjp reads.
        """
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
        return self._forward_rows(xt, z, t, keep, params)

    def backward(self, cache, upstream, out=None):
        """Backprop an (N, 3) upstream gradient through a keep=True cache.

        Returns (flat parameter gradient, d/d xt, d/d z); the parameter
        gradient is added into out when one is given.
        """
        return self._backward_rows(cache, upstream, out)

    def _field_forward(self, xt, z, t, keep=True, params=None):
        return self.forward(xt, z, t, keep=keep, params=params)


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
        """(mean, logvar, cache) of q(z | points).

        The max pool reads one row per feature, so the cache keeps only the
        rows it picked: pts, s1, h1, s2, h2, s3, h3 at those rows (sorted,
        at most min(N, feature_width) of them), then each feature's index
        into those rows, the pooled feature and the unclipped log-variance.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"points must be (N, 3), got {pts.shape}")
        h1 = pts @ self._p("w1").T + self._p("b1")
        s1 = _silu_inplace(h1)
        h2 = h1 @ self._p("w2").T + self._p("b2")
        s2 = _silu_inplace(h2)
        h3 = h2 @ self._p("w3").T + self._p("b3")
        s3 = _silu_inplace(h3)
        argmax = np.argmax(h3, axis=0)
        pooled = h3[argmax, np.arange(h3.shape[1])]
        mean = pooled @ self._p("mean_w").T + self._p("mean_b")
        raw = pooled @ self._p("logvar_w").T + self._p("logvar_b")
        logvar = np.clip(raw, LOGVAR_MIN, LOGVAR_MAX)
        rows, inv = np.unique(argmax, return_inverse=True)
        picked = tuple(a[rows] for a in (pts, s1, h1, s2, h2, s3, h3))
        return mean, logvar, picked + (inv, pooled, raw)

    def backward(self, cache, dmean, dlogvar, out=None):
        """Backprop upstream gradients of (mean, logvar) to the parameters.

        Runs the three layers on the pooled rows only; every other row's
        gradient is zero. The flat gradient is added into out when one is
        given, and into a fresh zero vector otherwise.
        """
        pts, s1, h1, s2, h2, s3, h3, inv, pooled, raw = cache
        g = np.zeros(self.layout.size) if out is None else out

        def add(name, value):
            slot = self.layout.view(g, name)
            slot += value

        dlogvar = np.where((raw > LOGVAR_MIN) & (raw < LOGVAR_MAX), dlogvar, 0.0)
        add("mean_w", np.outer(dmean, pooled))
        add("mean_b", dmean)
        add("logvar_w", np.outer(dlogvar, pooled))
        add("logvar_b", dlogvar)
        dpooled = dmean @ self._p("mean_w") + dlogvar @ self._p("logvar_w")
        dh3 = np.zeros_like(h3)
        dh3[inv, np.arange(h3.shape[1])] = dpooled
        da3 = dh3 * _silu_slope(s3, h3)
        add("w3", da3.T @ h2)
        add("b3", da3.sum(axis=0))
        da2 = (da3 @ self._p("w3")) * _silu_slope(s2, h2)
        add("w2", da2.T @ h1)
        add("b2", da2.sum(axis=0))
        da1 = (da2 @ self._p("w2")) * _silu_slope(s1, h1)
        add("w1", da1.T @ pts)
        add("b1", da1.sum(axis=0))
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

    def forward(self, zt, t, keep=True, params=None):
        """(score, cache) at zt; keep as for MlpScoreNet.forward."""
        zt = np.asarray(zt, dtype=np.float64)
        if zt.shape != (self.latent_dim,):
            raise InvalidInputError(
                f"latent state must have dimension {self.latent_dim}, got {zt.shape}"
            )
        out, cache = self._forward_rows(zt[None, :], np.zeros(0), t, keep, params)
        return out[0], cache

    def backward(self, cache, upstream, out=None):
        """Backprop a (d,) upstream gradient through a keep=True cache.

        Returns (flat grads, d/d zt); the flat gradient is added into out
        when one is given.
        """
        upstream = np.asarray(upstream, dtype=np.float64)
        g, dzt, _ = self._backward_rows(cache, upstream[None, :], out)
        return g, dzt[0]

    def _field_forward(self, xt, z, t, keep=True, params=None):
        if z is not None:
            raise InvalidInputError("latent score net takes no conditioning code")
        return self.forward(xt, t, keep=keep, params=params)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for the three networks.

    The checkpoint header lists these fields in declaration order, so
    reordering them changes the file.
    """

    latent_dim: int = 64
    encoder_width: int = 256
    decoder_width: int = 256
    decoder_blocks: int = 6
    temb_dim: int = 64
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
        if self.decoder.temb_dim != self.latent.temb_dim:
            raise InvalidInputError(
                f"inconsistent time embedding dimensions: decoder "
                f"{self.decoder.temb_dim}, latent net {self.latent.temb_dim}"
            )

    @property
    def latent_dim(self):
        return self.encoder.latent_dim

    @property
    def config(self):
        """The ModelConfig of these nets' architecture."""
        return ModelConfig(
            latent_dim=self.latent_dim,
            encoder_width=self.encoder.feature_width,
            decoder_width=self.decoder.width,
            decoder_blocks=self.decoder.n_blocks,
            temb_dim=self.decoder.temb_dim,
            latent_width=self.latent.width,
            latent_blocks=self.latent.n_blocks,
        )


def build_models(config, seed=0, params=None):
    """The ModelBundle of a ModelConfig.

    Given params, an (encoder, decoder, latent) triple of flat vectors, the
    nets copy them; otherwise they are drawn fresh from seed.
    """
    enc, dec, lat = (None, None, None) if params is None else params
    seqs = np.random.SeedSequence(seed).spawn(3)
    encoder = PointEncoder(
        config.latent_dim,
        feature_width=config.encoder_width,
        params=enc,
        rng=np.random.default_rng(seqs[0]),
    )
    decoder = MlpScoreNet(
        config.latent_dim,
        width=config.decoder_width,
        n_blocks=config.decoder_blocks,
        temb_dim=config.temb_dim,
        params=dec,
        rng=np.random.default_rng(seqs[1]),
    )
    latent = LatentScoreNet(
        config.latent_dim,
        width=config.latent_width,
        n_blocks=config.latent_blocks,
        temb_dim=config.temb_dim,
        params=lat,
        rng=np.random.default_rng(seqs[2]),
    )
    return ModelBundle(encoder=encoder, decoder=decoder, latent=latent)
