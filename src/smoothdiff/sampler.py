"""Reverse-time generation with optional graph-smoothness guidance.

The sampler integrates the reverse SDE with Euler-Maruyama from t = 1 down
to a small positive floor. At each guided step the state is denoised with
Tweedie's identity, a k-NN graph Laplacian is built from that denoised
estimate, and the gradient of trace(Xhat^T L Xhat) with respect to the noisy
state is subtracted with strength alpha. Two chain rules are offered:
"frozen_score" ignores the score field's own dependence on the state, and
"exact_chain" includes it through a vector-Jacobian product (fields that
cannot differentiate themselves raise the unsupported-mode error).

Every step takes its score from the field's step_scorer. For the learned
score nets that is a float32 pass over weights cast once per chain,
returned as float64, on every step of every mode. A guided exact step keeps
the cache of its float32 forward, and the input VJP on that cache runs in
float32 too and returns float64. The Tweedie estimate, the Laplacian, the
constraint gradient, the chain state and the terminal denoise stay
float64, and so does constraint_gradient called without a score and cache:
it evaluates the field through its float64 public routes, which
finite-difference checks difference at steps float32 rounding would swamp.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NumericalAbortError,
)
from .geometry import (
    PointCloud,
    build_knn_graph,
    build_laplacian,
    smoothness,
    smoothness_gradient,
)
from .pointio import _atomic_open
from .sde import EPS_T

CONSTRAINT_MODES = ("off", "frozen_score", "exact_chain")


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-chain settings.

    The default alpha is sized for the default 1000-step chain; the
    correction is applied once per step without a dt factor, so halving
    n_steps roughly halves the total constraint effect.
    """

    n_steps: int = 1000
    alpha: float = 1e-4
    knn_k: int = 30
    graph_refresh_stride: int = 1
    constraint_mode: str = "frozen_score"
    seed: int = 0
    t_floor: float = EPS_T
    # Constraint applies only while t <= t_constraint; 1.0 means always.
    t_constraint: float = 1.0
    terminal_denoise: bool = False
    record_trajectory: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidParameterError("n_steps must be >= 1")
        if self.alpha < 0:
            raise InvalidParameterError("alpha must be >= 0")
        if self.knn_k < 1:
            raise InvalidParameterError("knn_k must be >= 1")
        if self.graph_refresh_stride < 1:
            raise InvalidParameterError("graph_refresh_stride must be >= 1")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise InvalidParameterError(
                f"constraint_mode must be one of {CONSTRAINT_MODES}, "
                f"got {self.constraint_mode!r}"
            )
        if not 0.0 < self.t_floor < 1.0:
            raise InvalidParameterError("t_floor must lie in (0, 1)")
        if not 0.0 < self.t_constraint <= 1.0:
            raise InvalidParameterError("t_constraint must lie in (0, 1]")

    @property
    def constrained(self):
        return self.constraint_mode != "off" and self.alpha > 0.0


@dataclass(frozen=True)
class Trajectory:
    """Diagnostic record of one chain: strictly decreasing times and the
    smoothness of the Tweedie-denoised estimate at each step.

    Holds n_steps + 1 rows; the final row measures the returned cloud itself
    (after any terminal denoise) on a fresh graph at t_floor.
    """

    step: np.ndarray
    t: np.ndarray
    smoothness: np.ndarray

    def write_csv(self, path):
        with _atomic_open(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "t", "smoothness"])
            for k, tk, sk in zip(self.step, self.t, self.smoothness):
                writer.writerow([int(k), repr(float(tk)), repr(float(sk))])


def tweedie_denoise(xt, score, t, schedule):
    """Posterior-mean estimate of the clean state: (xt + b^2 score) / a."""
    xt = np.asarray(xt, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if xt.shape != score.shape:
        raise InvalidInputError("state and score shapes differ")
    a = schedule.drift_coef(t)
    b = schedule.diffusion_std(t)
    return (xt + b * b * score) / a


def constraint_gradient(xt, field, z, t, laplacian, mode, schedule, score=None,
                        cache=None):
    """Gradient of trace(Xhat^T L Xhat) with respect to the noisy state.

    With Xhat = (xt + b^2 s(xt)) / a the exact chain rule gives
    (G + b^2 J_s^T G) / a where G = 2 L Xhat; "frozen_score" keeps only the
    first term. Returns zeros for mode "off". Passing a precomputed score
    skips one field evaluation, and passing the cache from the field's
    evaluate_cached with it lets input_vjp skip the forward pass.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if mode not in CONSTRAINT_MODES:
        raise InvalidParameterError(
            f"constraint_mode must be one of {CONSTRAINT_MODES}, got {mode!r}"
        )
    if mode == "off":
        return np.zeros_like(xt)
    if score is None:
        score, cache = field.evaluate_cached(xt, z, t)
    a = schedule.drift_coef(t)
    b = schedule.diffusion_std(t)
    xhat = tweedie_denoise(xt, score, t, schedule)
    g_hat = smoothness_gradient(xhat, laplacian)
    if mode == "frozen_score":
        return g_hat / a
    # A field without a cache may implement the four-argument input_vjp only.
    kwargs = {} if cache is None else {"cache": cache}
    vjp = field.input_vjp(xt, z, t, g_hat, **kwargs)
    return (g_hat + b * b * vjp) / a


def _reverse_chain(field, z, shape, schedule, config, rng, what):
    """Euler-Maruyama from t = 1 down to t_floor, from a standard-normal state.

    Each step evaluates the score through the field's step_scorer, keeping
    its cache on guided exact-chain steps for the input VJP, refreshes the
    Tweedie-denoised estimate and its graph when the constraint is active or
    the trajectory is recorded, takes the Euler step, and subtracts alpha
    times the constraint gradient while t <= t_constraint. Returns (final
    state, trajectory rows or None). A non-finite state aborts with the
    step, t and `what` in the message.
    """
    dt = (1.0 - config.t_floor) / config.n_steps
    score_step = field.step_scorer()
    x = rng.standard_normal(shape)
    lap = None
    rows = [] if config.record_trajectory else None
    for k in range(config.n_steps):
        t = 1.0 - k * dt
        active = config.constrained and t <= config.t_constraint
        exact = active and config.constraint_mode == "exact_chain"
        score, cache = score_step(x, z, t, keep=exact)
        score = np.asarray(score, dtype=np.float64)
        if score.shape != x.shape:
            raise InvalidInputError("score shape does not match the state")
        if active or rows is not None:
            xhat = tweedie_denoise(x, score, t, schedule)
            if lap is None or k % config.graph_refresh_stride == 0:
                lap = build_laplacian(build_knn_graph(xhat, config.knn_k))
            if rows is not None:
                rows.append((k, t, smoothness(xhat, lap)))
        g = schedule.sde_diffusion(t)
        drift = schedule.sde_drift(x, t) - g * g * score
        x_next = x - drift * dt + g * np.sqrt(dt) * rng.standard_normal(shape)
        if active:
            grad = constraint_gradient(
                x, field, z, t, lap, config.constraint_mode, schedule,
                score=score, cache=cache,
            )
            x_next = x_next - config.alpha * grad
        # Drop the forward cache so that it is not held through the next forward.
        x, cache = x_next, None
        if not np.all(np.isfinite(x)):
            raise NumericalAbortError(f"step {k}, t={t!r}: non-finite {what}")
    return x, rows


def sample_latent(field, schedule, config, rng):
    """Unconstrained reverse chain in latent space; returns the final code."""
    config = replace(config, constraint_mode="off", record_trajectory=False)
    return _reverse_chain(
        field, None, (field.latent_dim,), schedule, config, rng, "latent code"
    )[0]


def generate(field, schedule, config, n_clouds, n_points, latent_field=None,
             latents=None):
    """Sample n_clouds point clouds of n_points each.

    Latent codes come from, in order of precedence: the explicit latents
    array (n_clouds, d), a reverse chain over latent_field, or None for
    fields that need no conditioning. Each cloud draws from an independent
    child stream of config.seed.

    Returns (clouds, trajectories); trajectories is None unless
    config.record_trajectory is set.
    """
    if n_clouds < 1 or n_points < 1:
        raise InvalidParameterError("n_clouds and n_points must be >= 1")
    needs_graph = config.constrained or config.record_trajectory
    if needs_graph and n_points < config.knn_k + 1:
        raise InvalidParameterError(
            f"graph construction needs n_points > knn_k ({config.knn_k})"
        )
    if latents is not None:
        latents = np.asarray(latents, dtype=np.float64)
        if latents.ndim != 2 or latents.shape[0] != n_clouds:
            raise InvalidInputError(
                f"latents must be ({n_clouds}, d), got {latents.shape}"
            )

    streams = np.random.SeedSequence(config.seed).spawn(n_clouds)
    clouds = []
    trajectories = [] if config.record_trajectory else None

    for i in range(n_clouds):
        rng = np.random.default_rng(streams[i])
        if latents is not None:
            z = latents[i]
        elif latent_field is not None:
            try:
                z = sample_latent(latent_field, schedule, config, rng)
            except NumericalAbortError as exc:
                raise NumericalAbortError(f"{exc} of cloud {i}") from exc
        else:
            z = None

        x, rows = _reverse_chain(
            field, z, (n_points, 3), schedule, config, rng, f"state of cloud {i}"
        )
        if config.terminal_denoise:
            score = field.evaluate(x, z, config.t_floor)
            x = tweedie_denoise(x, score, config.t_floor, schedule)
        if config.record_trajectory:
            lap = build_laplacian(build_knn_graph(x, config.knn_k))
            rows.append((config.n_steps, config.t_floor, smoothness(x, lap)))
            arr = np.array(rows, dtype=np.float64)
            trajectories.append(
                Trajectory(
                    step=arr[:, 0].astype(np.int64), t=arr[:, 1], smoothness=arr[:, 2]
                )
            )
        clouds.append(PointCloud(x))
    return clouds, trajectories
