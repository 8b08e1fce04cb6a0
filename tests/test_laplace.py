"""Tests of the Laplace posterior fit and the fitted Gaussian proposals."""

import numpy as np
import pytest

from mlmc_boed import (
    Design,
    LaplaceProposalFactory,
    PkProblem,
    ProblemModel,
    laplace_fit_batch,
)
from mlmc_boed.proposals import FittedGaussian

LOG_2PI = float(np.log(2.0 * np.pi))


class LinearGaussianModel(ProblemModel):
    """Observations y = A theta + b + noise with constant noise variance.

    The posterior is conjugate Gaussian, so the one-step fit initialized at
    the prior mean must recover the posterior mean and covariance exactly.
    """

    def __init__(self, A, b, noise_var, prior_mean, prior_var):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.noise_var = float(noise_var)
        self.prior_mean = np.asarray(prior_mean, dtype=float)
        self.prior_var = float(prior_var)
        self.t, self.s = self.A.shape
        self.d = self.t
        self.s_noise = self.t

    def sample_prior(self, rng, n):
        return self.prior_mean + np.sqrt(self.prior_var) * rng.standard_normal(
            (n, self.s)
        )

    def prior_logpdf(self, theta):
        z = np.asarray(theta, dtype=float) - self.prior_mean
        return (-0.5 * LOG_2PI - 0.5 * np.log(self.prior_var)
                - z**2 / (2 * self.prior_var)).sum(axis=-1)

    def prior_logpdf_derivs(self, theta):
        theta = np.asarray(theta, dtype=float)
        grad = -(theta - self.prior_mean) / self.prior_var
        hess = np.broadcast_to(
            -np.eye(self.s) / self.prior_var, theta.shape[:-1] + (self.s, self.s)
        ).copy()
        return self.prior_logpdf(theta), grad, hess

    def observation_derivs(self, design, theta, second: bool):
        theta = np.asarray(theta, dtype=float)
        value = theta @ self.A.T + self.b
        grad = np.broadcast_to(self.A, theta.shape[:-1] + self.A.shape).copy()
        hess = None
        if second:
            hess = np.zeros(theta.shape[:-1] + (self.t, self.s, self.s))
        return value, grad, hess

    def observation_variance(self, value):
        return np.full_like(value, self.noise_var)


@pytest.fixture
def linear_model():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 3))
    b = rng.normal(size=6)
    return LinearGaussianModel(A, b, noise_var=0.3, prior_mean=np.array([0.4, -1.0, 2.0]), prior_var=0.7)


def _conjugate_posterior(model, y):
    A, b = model.A, model.b
    prec = A.T @ A / model.noise_var + np.eye(model.s) / model.prior_var
    cov = np.linalg.inv(prec)
    mean = cov @ (A.T @ (y - b) / model.noise_var + model.prior_mean / model.prior_var)
    return mean, cov


def test_linear_gaussian_fit_is_exact(linear_model):
    rng = np.random.default_rng(1)
    design = Design(np.arange(1.0, 7.0))
    n = 5
    theta_star = np.tile(linear_model.prior_mean, (n, 1))
    y = (theta_star @ linear_model.A.T + linear_model.b
         + np.sqrt(linear_model.noise_var) * rng.standard_normal((n, 6)))
    means, covs, fallback = laplace_fit_batch(linear_model, design, theta_star, y)
    assert not fallback.any()
    for i in range(n):
        mean_ref, cov_ref = _conjugate_posterior(linear_model, y[i])
        assert np.allclose(means[i], mean_ref, atol=1e-10, rtol=0.0)
        assert np.allclose(covs[i], cov_ref, atol=1e-10, rtol=0.0)


def test_zero_residual_keeps_the_anchor_point():
    pk = PkProblem()
    design = pk.default_design()
    theta = pk.params.prior_mean[None, :].copy()
    gbar, _, _ = pk.observation_derivs(design, theta, second=False)
    means, covs, fallback = laplace_fit_batch(pk, design, theta, gbar)
    assert not fallback.any()
    assert np.allclose(means[0], theta[0], atol=1e-12)


def test_posterior_covariance_contracts_the_prior():
    pk = PkProblem()
    design = pk.default_design()
    rng = np.random.default_rng(2)
    theta = pk.sample_prior(rng, 50)
    eps = pk.sample_noise(rng, 50)
    y = pk.simulate(design, theta, eps)
    means, covs, fallback = laplace_fit_batch(pk, design, theta, y)
    prior_cov = pk.params.prior_var * np.eye(3)
    for i in np.flatnonzero(~fallback):
        # prior_cov - cov must be positive semidefinite (data only informs)
        eigs = np.linalg.eigvalsh(prior_cov - covs[i])
        assert eigs.min() > -1e-10
        assert np.all(np.isfinite(means[i]))


def test_fit_invariant_under_observation_reordering(linear_model):
    rng = np.random.default_rng(3)
    design = Design(np.arange(1.0, 7.0))
    theta_star = linear_model.prior_mean[None, :]
    y = rng.normal(size=(1, 6))
    m1, c1, _ = laplace_fit_batch(linear_model, design, theta_star, y)
    perm = np.array([3, 1, 5, 0, 4, 2])
    permuted = LinearGaussianModel(
        linear_model.A[perm], linear_model.b[perm],
        noise_var=linear_model.noise_var,
        prior_mean=linear_model.prior_mean,
        prior_var=linear_model.prior_var,
    )
    m2, c2, _ = laplace_fit_batch(permuted, design, theta_star, y[:, perm])
    assert np.allclose(m1, m2, atol=1e-12)
    assert np.allclose(c1, c2, atol=1e-12)


def test_single_sample_wrapper():
    pk = PkProblem()
    design = pk.default_design()
    rng = np.random.default_rng(4)
    theta = pk.sample_prior(rng, 1)[0]
    eps = pk.sample_noise(rng, 1)
    y = pk.simulate(design, theta[None, :], eps)[0]
    means, covs, fallback = laplace_fit_batch(pk, design, theta[None, :], y[None, :])
    fitted = LaplaceProposalFactory().fit(pk, design, theta[None, :], eps, y[None, :])
    assert not fallback[0] and fitted.n_fallback == 0
    assert means[0].shape == (3,)
    assert np.allclose(fitted.chols[0] @ fitted.chols[0].T, covs[0], atol=1e-12)


def test_fitted_gaussian_proposal_density_and_moments():
    pk = PkProblem()
    design = pk.default_design()
    rng = np.random.default_rng(5)
    theta = pk.sample_prior(rng, 3)
    eps = pk.sample_noise(rng, 3)
    y = pk.simulate(design, theta, eps)
    fitted = LaplaceProposalFactory().fit(pk, design, theta, eps, y)
    draws, corr = fitted.sample_inner(np.random.default_rng(6), 50_000)
    means, covs, _ = laplace_fit_batch(pk, design, theta, y)
    for i in range(3):
        assert np.allclose(draws[i].mean(axis=0), means[i], atol=0.01)
        emp_cov = np.cov(draws[i].T)
        assert np.allclose(emp_cov, covs[i], atol=0.01)
    # correction = log prior - log proposal; check one value directly
    th = draws[0, 0]
    z = np.linalg.solve(np.linalg.cholesky(covs[0]), th - means[0])
    log_q = (-1.5 * LOG_2PI
             - 0.5 * np.log(np.linalg.det(covs[0]))
             - 0.5 * z @ z)
    assert corr[0, 0] == pytest.approx(float(pk.prior_logpdf(th[None, :])[0]) - log_q, abs=1e-9)


def test_proposal_concentrates_near_truth():
    # posterior sd must be far below prior sd for an informative schedule
    pk = PkProblem()
    design = pk.default_design()
    rng = np.random.default_rng(7)
    theta = pk.sample_prior(rng, 100)
    eps = pk.sample_noise(rng, 100)
    y = pk.simulate(design, theta, eps)
    means, covs, fallback = laplace_fit_batch(pk, design, theta, y)
    ok = ~fallback
    sds = np.sqrt(np.diagonal(covs[ok], axis1=-2, axis2=-1))
    assert np.median(sds) < 0.5 * np.sqrt(pk.params.prior_var)
    assert np.mean(np.abs(means[ok] - theta[ok])) < 2 * np.sqrt(pk.params.prior_var)


# The estimators pass an outer sample at level l to the fit as 2**(l - l_min)
# equal consecutive rows; the fit must treat each run as one outer sample.
RUNS = np.array([1, 4, 2, 1, 8, 2])


def _repeated_rows(seed, infinite=()):
    pk = PkProblem()
    design = pk.default_design()
    rng = np.random.default_rng(seed)
    theta = pk.sample_prior(rng, RUNS.size)
    eps = pk.sample_noise(rng, RUNS.size)
    y = pk.simulate(design, theta, eps)
    y[list(infinite)] = np.inf  # no finite Laplace step: the fit falls back
    rows = [np.repeat(a, RUNS, axis=0) for a in (theta, eps, y)]
    return pk, design, (theta, eps, y), rows


def test_fit_of_repeated_rows_is_the_fit_of_each_outer_sample_repeated():
    pk, design, outer, rows = _repeated_rows(8)
    fitted = LaplaceProposalFactory().fit(pk, design, *rows)
    once = LaplaceProposalFactory().fit(pk, design, *outer)
    assert fitted.n == RUNS.sum() and fitted.runs.tolist() == RUNS.tolist()
    np.testing.assert_array_equal(fitted.means, once.means)
    np.testing.assert_array_equal(fitted.chols, once.chols)
    # Every row samples its own outer sample's proposal, bit for bit.
    rows = RUNS.sum()
    per_row = FittedGaussian(pk, np.repeat(once.means, RUNS, axis=0),
                             np.repeat(once.chols, RUNS, axis=0),
                             np.zeros(rows, dtype=bool), np.ones(rows, dtype=np.int64))
    for a, b in zip(fitted.sample_inner(np.random.default_rng(9), 4),
                    per_row.sample_inner(np.random.default_rng(9), 4)):
        np.testing.assert_array_equal(a, b)


def test_fallback_counts_outer_samples_and_draws_every_row_from_the_prior():
    pk, design, _, rows = _repeated_rows(8, infinite=(1, 4))
    with np.errstate(invalid="ignore"):
        fitted = LaplaceProposalFactory().fit(pk, design, *rows)
    assert fitted.fallback.tolist() == [False, True, False, False, True, False]
    assert fitted.n_fallback == 2  # two outer samples, 4 + 8 rows
    m = 3
    theta, corr = fitted.sample_inner(np.random.default_rng(10), m)
    mask = np.repeat(fitted.fallback, RUNS)
    rng = np.random.default_rng(10)
    rng.standard_normal((RUNS.sum(), m, pk.s))
    prior = pk.sample_prior(rng, 12 * m).reshape(12, m, pk.s)
    np.testing.assert_array_equal(theta[mask], prior)
    assert np.all(corr[mask] == 0.0) and np.all(corr[~mask] != 0.0)
