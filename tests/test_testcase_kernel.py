"""The in-place test-case likelihood kernel against the direct formula.

``_loglik_score_reference`` is the earlier ``TestCaseProblem.loglik_score``,
kept verbatim.  The in-place kernel performs the same floating-point
operations on each entry in the same order, so both of its outputs must
equal the reference bit for bit, shapes included, in both layouts the
estimators use: ``(n, M)`` with one inner batch per outer row, and the
ragged ``(N, 1)`` layout with outer rows repeated.
"""

import numpy as np
import pytest

from mlmc_boed import Design, NumericalDomainError, TestCaseProblem
from mlmc_boed.model import LOG_2PI
from mlmc_boed.testcase import XI_LOWER, TestCaseParams


def _loglik_score_reference(self, design, theta, eps, theta_inner):
    self._check_dims(design, theta, eps)
    p = self.params
    c, cp = self._gains(design)
    lt = np.log(theta)[:, None, :]           # (n, 1, 2)
    lti = np.log(theta_inner)                # (n, M, 2)
    log_y = c * lt + p.sigma_eps * eps[:, None, :]
    resid = log_y - c * lti                  # log y - c * log theta'
    var = p.sigma_eps**2
    log_rho = (-log_y - 0.5 * LOG_2PI - np.log(p.sigma_eps)
               - resid**2 / (2 * var)).sum(axis=-1)
    # total d/dxi: Jacobian term -c' log(theta) plus the residual term.
    diff = lt - lti
    per_channel = -cp * lt - cp * diff * resid / var
    score = per_channel.sum(axis=-1, keepdims=True)  # d = 1
    if not np.all(np.isfinite(log_rho)):
        raise NumericalDomainError(
            "non-finite log-likelihood", design=design.values, theta=theta, eps=eps
        )
    return log_rho, score


MODELS = [TestCaseProblem(), TestCaseProblem(TestCaseParams(mu=0.3, sigma0=0.7, sigma_eps=0.4))]


def _assert_same_bits(model, design, theta, eps, theta_inner):
    expected = _loglik_score_reference(model, design, theta, eps, theta_inner)
    got = model.loglik_score(design, theta, eps, theta_inner)
    for e, g in zip(expected, got):
        assert g.shape == e.shape
        assert np.array_equal(g, e)


@pytest.mark.parametrize("xi", [XI_LOWER, 1.5, 10.0])
@pytest.mark.parametrize("m", [1, 3, 64, 1025])
@pytest.mark.parametrize("model", MODELS, ids=["default", "scaled"])
def test_outer_by_inner_layout_is_bit_identical(model, m, xi):
    rng = np.random.default_rng(m)
    n = 37
    design = Design(np.array([xi]))
    theta = model.sample_prior(rng, n)
    eps = model.sample_noise(rng, n)
    theta_inner = model.sample_prior(rng, n * m).reshape(n, m, 2)
    _assert_same_bits(model, design, theta, eps, theta_inner)


@pytest.mark.parametrize("xi", [XI_LOWER, 1.5, 10.0])
@pytest.mark.parametrize("model", MODELS, ids=["default", "scaled"])
def test_ragged_layout_is_bit_identical(model, xi):
    rng = np.random.default_rng(7)
    n = 50
    design = Design(np.array([xi]))
    rep = rng.integers(1, 20, size=n)
    theta = np.repeat(model.sample_prior(rng, n), rep, axis=0)
    eps = np.repeat(model.sample_noise(rng, n), rep, axis=0)
    theta_inner = model.sample_prior(rng, rep.sum())[:, None, :]
    _assert_same_bits(model, design, theta, eps, theta_inner)


def test_inputs_are_left_unchanged():
    model = TestCaseProblem()
    rng = np.random.default_rng(3)
    theta, eps = model.sample_prior(rng, 4), model.sample_noise(rng, 4)
    theta_inner = model.sample_prior(rng, 20).reshape(4, 5, 2)
    before = [a.copy() for a in (theta, eps, theta_inner)]
    model.loglik_score(Design(np.array([1.5])), theta, eps, theta_inner)
    for a, b in zip((theta, eps, theta_inner), before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_non_finite_entry_raises(bad):
    model = TestCaseProblem()
    rng = np.random.default_rng(4)
    theta, eps = model.sample_prior(rng, 6), model.sample_noise(rng, 6)
    theta_inner = model.sample_prior(rng, 18).reshape(6, 3, 2)
    theta_inner[2, 1, 1] = bad
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NumericalDomainError):
        model.loglik_score(Design(np.array([1.5])), theta, eps, theta_inner)


@pytest.mark.parametrize("model", MODELS, ids=["default", "scaled"])
def test_sample_prior_is_bit_identical(model):
    p = model.params
    got = model.sample_prior(np.random.default_rng(11), 1000)
    expected = np.exp(np.random.default_rng(11).normal(p.mu, p.sigma0, (1000, 2)))
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
