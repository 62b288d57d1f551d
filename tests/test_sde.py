"""Forward-diffusion schedule: closed forms against quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from smoothdiff import (
    DiffusionSchedule,
    InvalidInputError,
    InvalidParameterError,
    SingularTimeError,
)
from smoothdiff.sde import EPS_T


@pytest.fixture
def schedule():
    return DiffusionSchedule()


def test_beta_endpoints(schedule):
    assert schedule.beta(0.0) == pytest.approx(0.1)
    assert schedule.beta(1.0) == pytest.approx(20.0)
    assert schedule.beta(0.5) == pytest.approx(0.5 * (0.1 + 20.0))


def test_drift_coef_matches_quadrature(schedule):
    # independent oracle: numerically integrate beta instead of the closed form
    for t in (1e-5, 1e-3, 0.1, 0.37, 0.5, 0.9, 1.0):
        integral, err = quad(schedule.beta, 0.0, t)
        assert err < 1e-12
        assert schedule.drift_coef(t) == pytest.approx(np.exp(-0.5 * integral), rel=1e-10)


def test_variance_preserving_identity(schedule):
    for t in np.linspace(0.0, 1.0, 21):
        a = schedule.drift_coef(t)
        b = schedule.diffusion_std(t)
        assert a * a + b * b == pytest.approx(1.0, abs=1e-13)


def test_diffusion_std_small_t_precision(schedule):
    # b(t)^2 ~ beta_min * t for tiny t; expm1 keeps this accurate
    t = 1e-8
    assert schedule.diffusion_std(t) ** 2 == pytest.approx(0.1 * t, rel=1e-6)


def test_sde_coefficients(schedule):
    x = np.array([[1.0, -2.0, 0.5]])
    t = 0.3
    assert np.allclose(schedule.sde_drift(x, t), -0.5 * schedule.beta(t) * x)
    assert schedule.sde_diffusion(t) == pytest.approx(np.sqrt(schedule.beta(t)))


def test_perturb_closed_form_and_moments(schedule):
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((4, 3))
    noise = rng.standard_normal((4, 3))
    t = 0.6
    xt = schedule.perturb(x0, t, noise)
    a, b = schedule.drift_coef(t), schedule.diffusion_std(t)
    assert np.array_equal(xt, a * x0 + b * noise)
    # Monte Carlo check of the kernel moments
    draws = np.stack([schedule.perturb(x0, t, rng.standard_normal((4, 3))) for _ in range(4000)])
    assert np.max(np.abs(draws.mean(axis=0) - a * x0)) < 0.1
    assert abs(draws.std() - np.sqrt(b * b + (a * x0).var())) < 0.05


def test_conditional_score_target_formula(schedule):
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((5, 3))
    xt = rng.standard_normal((5, 3))
    t = 0.4
    got = schedule.conditional_score_target(x0, xt, t)
    a, b = schedule.drift_coef(t), schedule.diffusion_std(t)
    assert np.allclose(got, -(xt - a * x0) / b**2, rtol=1e-14)


def test_conditional_score_singular_at_zero(schedule):
    x = np.zeros((2, 3))
    with pytest.raises(SingularTimeError):
        schedule.conditional_score_target(x, x, 0.0)
    # just above the floor it is finite
    out = schedule.conditional_score_target(x, x + 1.0, EPS_T)
    assert np.isfinite(out).all()


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        DiffusionSchedule(beta_min=0.0)
    with pytest.raises(InvalidParameterError):
        DiffusionSchedule(beta_min=1.0, beta_max=0.5)
    s = DiffusionSchedule()
    with pytest.raises(InvalidParameterError):
        s.beta(1.5)
    with pytest.raises(InvalidParameterError):
        s.drift_coef(-0.1)
    with pytest.raises(InvalidInputError):
        s.perturb(np.zeros((2, 3)), 0.5, np.zeros((3, 3)))


def test_terminal_time_nearly_standard_normal(schedule):
    # a(1) is small enough that x_1 is essentially pure noise
    assert schedule.drift_coef(1.0) < 0.01
    assert schedule.diffusion_std(1.0) > 0.9999
