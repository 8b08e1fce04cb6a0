"""Tests of the pharmacokinetic problem: response surface and likelihood."""

import numpy as np
import pytest
from laplace_reference import full_hessian
from scipy.stats import norm

from mlmc_boed import ContractViolationError, Design, PkParams, PkProblem, default_config
from mlmc_boed.pk import _mean_and_slope

PRIOR_MEANS = np.array([0.0, np.log(0.1), np.log(20.0)])


@pytest.fixture
def model():
    return PkProblem()


def mean_response(theta, times):
    """``(value, grad, hess)`` of the mean response at ``times``, from the
    Laplace hook."""
    return PkProblem().observation_derivs(Design(times), theta, True)


def _analytic_gbar(theta, times, dose=400.0):
    ka, ke, vol = np.exp(theta)
    return dose * ka / (vol * (ka - ke)) * (np.exp(-ke * times) - np.exp(-ka * times))


def test_mean_response_reference_values():
    times = np.array([0.0, 1.0])
    val, d_time = _mean_and_slope(PRIOR_MEANS[None, :], times, 400.0)
    assert val[0, 0] == 0.0
    # initial slope is D ka / V = 400 / 20
    assert d_time[0, 0] == pytest.approx(20.0, abs=1e-10)
    assert val[0, 1] == pytest.approx(11.93240, abs=5e-5)


def test_mean_response_matches_naive_formula():
    rng = np.random.default_rng(0)
    theta = PRIOR_MEANS + 0.4 * rng.standard_normal((20, 3))
    times = np.array([0.5, 2.0, 7.0, 23.0])
    val, _, _ = mean_response(theta, times)
    for i in range(20):
        assert np.allclose(val[i], _analytic_gbar(theta[i], times), rtol=1e-12)


def test_mean_response_smooth_through_equal_rates():
    # confluent limit: gbar -> D ka T exp(-ka T) / V
    theta = np.array([[np.log(0.1), np.log(0.1), np.log(20.0)]])
    times = np.array([1.0, 5.0])
    val, grad, hess = mean_response(theta, times)
    expected = 400.0 * 0.1 * times * np.exp(-0.1 * times) / 20.0
    assert np.allclose(val[0], expected, rtol=1e-12)
    assert hess.shape == (6,) + val.shape
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
    # approach from nearby separated rates agrees
    theta2 = np.array([[np.log(0.1) + 1e-9, np.log(0.1), np.log(20.0)]])
    val2, grad2, _ = mean_response(theta2, times)
    assert np.allclose(val[0], val2[0], rtol=1e-7)
    assert np.allclose(grad[0], grad2[0], rtol=1e-6)


def test_mean_response_extreme_rates_do_not_overflow():
    theta = np.array([[8.0, -6.0, 3.0]])  # ka = e^8, ke = e^-6
    val, grad, hess = mean_response(theta, np.array([1.0, 24.0]))
    assert np.all(np.isfinite(val)) and np.all(np.isfinite(grad))
    assert hess.shape == (6,) + val.shape
    assert np.all(np.isfinite(hess))


def test_mean_response_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    theta = PRIOR_MEANS + 0.3 * rng.standard_normal((6, 3))
    times = np.array([0.5, 3.0, 12.0])
    val, grad, packed = mean_response(theta, times)
    assert packed.shape == (6, 6, 3)  # (component, sample, time)
    hess = full_hessian(packed)
    e = 1e-6
    for j in range(3):
        tp, tm = theta.copy(), theta.copy()
        tp[:, j] += e
        tm[:, j] -= e
        vp, gp, _ = mean_response(tp, times)
        vm, gm, _ = mean_response(tm, times)
        assert np.allclose(grad[..., j], (vp - vm) / (2 * e), rtol=1e-5, atol=1e-8)
        assert np.allclose(hess[..., j, :], (gp - gm) / (2 * e), rtol=1e-4, atol=1e-6)
    # The time derivative is the slope that simulation and the likelihood use.
    value, d_time = _mean_and_slope(theta, times, 400.0)
    assert np.array_equal(value, val)
    vp, _ = _mean_and_slope(theta, times + e, 400.0)
    vm, _ = _mean_and_slope(theta, times - e, 400.0)
    assert np.allclose(d_time, (vp - vm) / (2 * e), rtol=1e-5, atol=1e-8)


def test_negative_time_rejected():
    with pytest.raises(ContractViolationError):
        mean_response(PRIOR_MEANS[None, :], np.array([-1.0]))


def test_prior_entropy(model):
    # Gaussian with covariance 0.05 I_3
    rng = np.random.default_rng(2)
    theta = model.sample_prior(rng, 200_000)
    entropy_mc = -model.prior_logpdf(theta).mean()
    entropy_exact = 1.5 * (np.log(2 * np.pi * 0.05) + 1.0)
    assert entropy_exact == pytest.approx(-0.2368, abs=5e-4)
    assert entropy_mc == pytest.approx(entropy_exact, abs=0.01)


def test_prior_derivs(model):
    # The fit's prior hook against second differences of the log-density.
    theta = PRIOR_MEANS + np.array([0.1, -0.2, 0.05])
    hess = np.broadcast_to(model.prior_hessian(theta[None, :]), (1, 3, 3))
    assert np.allclose(hess[0], -np.eye(3) / 0.05)
    e = 1e-4
    for i, j in np.ndindex(3, 3):
        di, dj = e * np.eye(3)[i], e * np.eye(3)[j]
        fd = (model.prior_logpdf(theta + di + dj) - model.prior_logpdf(theta + di - dj)
              - model.prior_logpdf(theta - di + dj) + model.prior_logpdf(theta - di - dj))
        assert fd / (4 * e * e) == pytest.approx(hess[0, i, j], abs=1e-4)


def test_simulate_mixes_noise_per_time(model):
    design = Design(default_config("pk").xi0)
    theta = PRIOR_MEANS[None, :]
    eps = np.zeros((1, 30))
    eps[0, 0] = 0.5   # multiplicative on time 1
    eps[0, 3] = 2.0   # additive on time 2
    y = model.simulate(design, theta, eps)
    gbar, _, _ = mean_response(theta, design.values)
    assert y[0, 0] == pytest.approx(gbar[0, 0] * 1.5)
    assert y[0, 1] == pytest.approx(gbar[0, 1] + 2.0)
    assert np.allclose(y[0, 2:], gbar[0, 2:])


def test_loglik_matches_normal_density(model):
    rng = np.random.default_rng(3)
    theta = model.sample_prior(rng, 4)
    eps = model.sample_noise(rng, 4)
    inner = model.sample_prior(rng, 8).reshape(4, 2, 3)
    design = Design(default_config("pk").xi0)
    y = model.simulate(design, theta, eps)
    log_rho, _ = model.loglik_score(design, theta, eps, inner)
    p = model.params
    gbar_in, _, _ = mean_response(inner, design.values)
    sd = np.sqrt(p.sigma1_sq * gbar_in**2 + p.sigma2_sq)
    ref = norm.logpdf(y[:, None, :], loc=gbar_in, scale=sd).sum(axis=-1)
    assert np.allclose(log_rho, ref, rtol=1e-12)


def test_score_matches_finite_difference_per_time(model):
    rng = np.random.default_rng(5)
    theta = model.sample_prior(rng, 3)
    eps = model.sample_noise(rng, 3)
    inner = model.sample_prior(rng, 6).reshape(3, 2, 3)
    design = Design(default_config("pk").xi0)
    _, score = model.loglik_score(design, theta, eps, inner)
    e = 1e-6
    for j in [0, 4, 14]:
        vp, vm = design.values.copy(), design.values.copy()
        vp[j] += e
        vm[j] -= e
        lp, _ = model.loglik_score(design.replace(vp), theta, eps, inner)
        lm, _ = model.loglik_score(design.replace(vm), theta, eps, inner)
        assert np.allclose(score[..., j], (lp - lm) / (2 * e), rtol=1e-4, atol=1e-7)


def test_custom_params_propagate():
    small = PkProblem(PkParams(n_times=4))
    assert small.d == 4 and small.s_noise == 8
    design = Design(np.arange(1.0, 5.0))
    assert design.dim == 4
    rng = np.random.default_rng(6)
    theta = small.sample_prior(rng, 2)
    eps = small.sample_noise(rng, 2)
    y = small.simulate(design, theta, eps)
    assert y.shape == (2, 4)


def test_loglik_rows_sharing_theta_but_not_eps(model):
    # Each row is evaluated as given: here a theta repeats over consecutive
    # rows while eps and the inner value change, and comes back later.
    rng = np.random.default_rng(7)
    design = Design(default_config("pk").xi0)
    theta = model.sample_prior(rng, 3)[[0, 0, 1, 2, 2, 2, 0]]
    eps = model.sample_noise(rng, 7)
    inner = model.sample_prior(rng, 7).reshape(7, 1, 3)
    log_rho, score = model.loglik_score(design, theta, eps, inner)
    for i in range(7):
        lr, sc = model.loglik_score(design, theta[i:i + 1], eps[i:i + 1], inner[i:i + 1])
        np.testing.assert_allclose(log_rho[i], lr[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(score[i], sc[0], rtol=1e-12,
                                   atol=1e-12 * np.abs(sc).max())
