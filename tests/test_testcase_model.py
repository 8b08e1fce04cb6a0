"""Tests of the lognormal benchmark problem against its closed forms."""

import numpy as np
import pytest

from mlmc_boed import (
    ContractViolationError,
    Design,
    TestCaseProblem,
    gain_g,
    gain_h,
    testcase_eig_closed,
    testcase_eig_upper,
    testcase_optimal_design,
)


@pytest.fixture
def model():
    return TestCaseProblem()


def test_gains_at_reference_point():
    g, gp = gain_g(1.5)
    h, hp = gain_h(1.5)
    assert g == pytest.approx(np.exp(-1.125))
    assert h == pytest.approx(np.sqrt(1.5 * (1 - np.exp(-2.25))))
    # g^2 + h^2 has derivative 2(g g' + h h') = 2 xi exp(-xi^2) ... check numerically
    e = 1e-7
    fd_g = (gain_g(1.5 + e)[0] - gain_g(1.5 - e)[0]) / (2 * e)
    fd_h = (gain_h(1.5 + e)[0] - gain_h(1.5 - e)[0]) / (2 * e)
    assert gp == pytest.approx(fd_g, rel=1e-6)
    assert hp == pytest.approx(fd_h, rel=1e-6)


def test_prior_logpdf_value(model):
    # standard lognormal at theta = (1, 1): each factor is 1/sqrt(2 pi)
    lp = model.prior_logpdf(np.array([[1.0, 1.0]]))
    assert lp[0] == pytest.approx(-np.log(2 * np.pi), abs=1e-12)


def test_prior_logpdf_outside_support(model):
    lp = model.prior_logpdf(np.array([[1.0, -1.0]]))
    assert lp[0] == -np.inf


def test_prior_sampling_moments(model):
    rng = np.random.default_rng(0)
    theta = model.sample_prior(rng, 200_000)
    # lognormal(0, 1): E log = 0, Var log = 1
    lt = np.log(theta)
    assert abs(lt.mean()) < 0.01
    assert abs(lt.var() - 1.0) < 0.02


def test_simulate_is_deterministic_given_inputs(model):
    design = Design(np.array([1.5]))
    theta = np.array([[1.3, 0.6]])
    eps = np.array([[0.2, -0.4]])
    y1 = model.simulate(design, theta, eps)
    y2 = model.simulate(design, theta, eps)
    assert np.array_equal(y1, y2)
    c = np.array([gain_g(1.5)[0], gain_h(1.5)[0]])
    assert np.allclose(y1, np.exp(c * np.log(theta) + eps))


def test_score_matches_finite_difference_in_design(model):
    rng = np.random.default_rng(3)
    n, m = 8, 5
    theta = model.sample_prior(rng, n)
    eps = model.sample_noise(rng, n)
    inner = model.sample_prior(rng, n * m).reshape(n, m, 2)
    d0 = Design(np.array([1.5]))
    _, score = model.loglik_score(d0, theta, eps, inner)
    e = 1e-6
    lp, _ = model.loglik_score(d0.replace([1.5 + e]), theta, eps, inner)
    lm, _ = model.loglik_score(d0.replace([1.5 - e]), theta, eps, inner)
    assert np.allclose(score[..., 0], (lp - lm) / (2 * e), rtol=1e-5, atol=1e-7)


def test_closed_form_eig_values():
    xi_star = testcase_optimal_design()
    assert xi_star == pytest.approx(np.sqrt(np.log(3.0)))
    assert testcase_eig_closed(xi_star) == pytest.approx(0.5 * np.log(8.0 / 3.0))
    # large-design limit: g -> 0, h^2 -> 1.5
    assert testcase_eig_closed(50.0) == pytest.approx(0.5 * np.log(2.5), abs=1e-9)


def test_upper_bound_dominates_eig():
    for xi in [0.2, 0.7, 1.048, 1.5, 3.0]:
        assert testcase_eig_upper(xi) >= testcase_eig_closed(xi)


def test_eig_maximized_at_interior_optimum():
    xi_star = testcase_optimal_design()
    u_star = testcase_eig_closed(xi_star)
    for xi in [xi_star - 0.05, xi_star + 0.05, 0.5, 1.5]:
        assert testcase_eig_closed(xi) < u_star


def test_gains_follow_the_design_value(model):
    # The model keeps the gains of the last design: a new value, or the old
    # value again, must give what a fresh model gives.
    rng = np.random.default_rng(5)
    theta, eps = model.sample_prior(rng, 6), model.sample_noise(rng, 6)
    theta_in = model.sample_prior(rng, 18).reshape(6, 3, 2)
    for xi in (1.5, 0.4, 1.5, 0.4 + 1e-15):
        design = Design(np.array([xi]))
        fresh = TestCaseProblem()
        assert np.array_equal(model.simulate(design, theta, eps),
                              fresh.simulate(design, theta, eps))
        for a, b in zip(model.loglik_score(design, theta, eps, theta_in),
                        fresh.loglik_score(design, theta, eps, theta_in)):
            assert np.array_equal(a, b)


def test_design_replace_checks_the_new_values_against_the_box():
    base = Design(np.array([1.0, 2.0]), lower=np.array([0.0, 1.0]), upper=np.array([3.0, 4.0]))
    moved = base.replace([2.5, 1.0])
    assert np.array_equal(moved.values, [2.5, 1.0])
    assert moved.lower is base.lower and moved.upper is base.upper
    for bad in ([3.5, 2.0], [1.0, 0.5], [np.nan, 2.0], [1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ContractViolationError):
            base.replace(bad)
