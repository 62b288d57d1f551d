"""Variance-preserving forward diffusion: schedules and the Gaussian kernel.

With a linear noise rate beta(t) on t in [0, 1], the forward process has the
closed-form perturbation kernel  x_t = a(t) x_0 + b(t) n,  n ~ N(0, I), where
a(t) = exp(-1/2 int_0^t beta) and b(t) = sqrt(1 - a(t)^2), so the marginal
variance of unit-variance data stays 1 for all t.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, SingularTimeError

# Floor for score evaluations; b(t) vanishes at t = 0.
EPS_T = 1e-5


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear-beta VP schedule over t in [0, 1]."""

    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if not (np.isfinite(self.beta_min) and np.isfinite(self.beta_max)):
            raise InvalidParameterError(
                f"beta_min and beta_max must be finite, got {self.beta_min!r} "
                f"and {self.beta_max!r}"
            )
        if self.beta_min <= 0:
            raise InvalidParameterError("beta_min must be > 0")
        if self.beta_max < self.beta_min:
            raise InvalidParameterError("beta_max must be >= beta_min")

    def _check_t(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise InvalidParameterError(f"t must lie in [0, 1], got {t}")
        return t

    def beta(self, t):
        """Instantaneous noise rate beta(t), linear in t."""
        t = self._check_t(t)
        out = self.beta_min + t * (self.beta_max - self.beta_min)
        return float(out) if out.ndim == 0 else out

    def _int_beta(self, t):
        # int_0^t beta(s) ds for the linear schedule
        return self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t

    def drift_coef(self, t):
        """Mean-scaling coefficient a(t) = exp(-1/2 int_0^t beta)."""
        t = self._check_t(t)
        out = np.exp(-0.5 * self._int_beta(t))
        return float(out) if out.ndim == 0 else out

    def diffusion_std(self, t):
        """Kernel standard deviation b(t) = sqrt(1 - a(t)^2)."""
        t = self._check_t(t)
        # 1 - exp(-I) via expm1 keeps precision at small t
        out = np.sqrt(-np.expm1(-self._int_beta(t)))
        return float(out) if out.ndim == 0 else out

    def sde_drift(self, x, t):
        """Forward drift f_t(x) = -1/2 beta(t) x."""
        return -0.5 * self.beta(t) * np.asarray(x, dtype=np.float64)

    def sde_diffusion(self, t):
        """Forward diffusion coefficient g_t = sqrt(beta(t))."""
        b = self.beta(t)
        return np.sqrt(b) if np.ndim(b) else float(np.sqrt(b))

    def perturb(self, x0, t, noise):
        """Sample the kernel at time t:  a(t) x0 + b(t) noise.

        The standard normal draw is supplied by the caller so perturbation is
        deterministic given (x0, t, noise).
        """
        x0 = np.asarray(x0, dtype=np.float64)
        noise = np.asarray(noise, dtype=np.float64)
        if x0.shape != noise.shape:
            raise InvalidInputError(
                f"noise shape {noise.shape} must match data shape {x0.shape}"
            )
        return self.drift_coef(t) * x0 + self.diffusion_std(t) * noise

    def conditional_score_target(self, x0, xt, t):
        """Score of the kernel, grad_xt log p_t(xt | x0) = -(xt - a x0) / b^2."""
        x0 = np.asarray(x0, dtype=np.float64)
        xt = np.asarray(xt, dtype=np.float64)
        if x0.shape != xt.shape:
            raise InvalidInputError(
                f"xt shape {xt.shape} must match x0 shape {x0.shape}"
            )
        b = self.diffusion_std(t)
        if b == 0.0:
            raise SingularTimeError("conditional score is singular at t = 0")
        return -(xt - self.drift_coef(t) * x0) / (b * b)
