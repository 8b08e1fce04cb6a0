"""Tests of the Laplace posterior fit and the fitted Gaussian proposals."""

import numpy as np
import pytest

from laplace_reference import LinearGaussianModel, full_hessian, reference_fit

from mlmc_boed import (
    ContractViolationError,
    Design,
    LaplaceProposalFactory,
    PkProblem,
    default_config,
)
from mlmc_boed.proposals import (
    FittedGaussian,
    _cholesky3,
    _hessian_term,
    _inv3,
    _solve3,
    laplace_fit_batch,
)

LOG_2PI = float(np.log(2.0 * np.pi))
# Fixed before the closed-form rewrite: the largest difference from the
# LAPACK reference, relative to the largest entry of the same row.
REL_TOL = 1e-12


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
    design = Design(default_config("pk").xi0)
    theta = pk.params.prior_mean[None, :].copy()
    gbar, _, _ = pk.observation_derivs(design, theta, second=False)
    means, covs, fallback = laplace_fit_batch(pk, design, theta, gbar)
    assert not fallback.any()
    assert np.allclose(means[0], theta[0], atol=1e-12)


def test_posterior_covariance_contracts_the_prior():
    pk = PkProblem()
    design = Design(default_config("pk").xi0)
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
    design = Design(default_config("pk").xi0)
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
    design = Design(default_config("pk").xi0)
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
    design = Design(default_config("pk").xi0)
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
    design = Design(default_config("pk").xi0)
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


def _row_rel_err(a, ref):
    a, ref = (x.reshape(x.shape[0], -1) for x in (a, ref))
    return float((np.abs(a - ref).max(axis=1) / np.abs(ref).max(axis=1)).max())


def test_fit_matches_the_lapack_reference_on_pk_prior_draws():
    pk = PkProblem()
    design = Design(default_config("pk").xi0)
    rng = np.random.default_rng(11)
    n = 10_000
    theta = pk.sample_prior(rng, n)
    eps = pk.sample_noise(rng, n)
    y = pk.simulate(design, theta, eps)
    y[::997, 3] = np.inf  # no finite Laplace step: both fits fall back
    with np.errstate(invalid="ignore"):
        means, covs, fallback = laplace_fit_batch(pk, design, theta, y)
        fitted = LaplaceProposalFactory().fit(pk, design, theta, eps, y)
        ref_means, ref_covs, ref_chols, ref_fallback, _ = reference_fit(pk, design, theta, eps, y)
    np.testing.assert_array_equal(fallback, ref_fallback)
    np.testing.assert_array_equal(fitted.fallback, ref_fallback)
    assert ref_fallback.sum() == len(range(0, n, 997))
    ok = ~ref_fallback
    assert _row_rel_err(means[ok], ref_means[ok]) <= REL_TOL
    assert _row_rel_err(covs[ok], ref_covs[ok]) <= REL_TOL
    assert _row_rel_err(fitted.means[ok], ref_means[ok]) <= REL_TOL
    assert _row_rel_err(fitted.chols[ok], ref_chols[ok]) <= REL_TOL
    assert np.all(np.triu(fitted.chols[ok], 1) == 0.0)
    np.testing.assert_array_equal(fitted.chols[~ok], np.broadcast_to(np.eye(3), (n - ok.sum(), 3, 3)))


def _mixed_batch():
    """3x3 matrices of every kind the fit can meet, and the rows each
    operation must fail on."""
    rng = np.random.default_rng(12)
    m = rng.normal(size=(2, 3, 3))
    spd = m @ np.swapaxes(m, 1, 2) + np.eye(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    indefinite = q @ np.diag([2.0, -1.0, 3.0]) @ q.T
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
    semidefinite = np.diag([2.0, 1.0, 0.0])  # only the last pivot is 0
    negative = -spd[0]
    with_nan = spd[1].copy()
    with_nan[2, 1] = with_nan[1, 2] = np.nan
    with_inf = spd[0].copy()
    with_inf[1, 1] = np.inf
    a = np.stack([spd[0], spd[1], indefinite, singular, semidefinite, negative,
                  with_nan, with_inf])
    singular_or_nonfinite = [3, 4, 6, 7]
    not_positive_definite = [2, 3, 4, 5, 6, 7]
    return a, singular_or_nonfinite, not_positive_definite


def _per_row_reference(op, a, *rest):
    """``op`` on each row alone, as ``(out, bad)``; a row where it raises is NaN."""
    out = []
    for i in range(a.shape[0]):
        try:
            with np.errstate(all="ignore"):
                out.append(op(a[i], *(x[i] for x in rest)))
        except np.linalg.LinAlgError:
            out.append(None)
    nan = np.full_like(next(r for r in out if r is not None), np.nan)
    out = np.array([nan if r is None else r for r in out])
    return out, ~np.isfinite(out).reshape(len(out), -1).all(axis=1)


@pytest.mark.parametrize("name", ["solve", "inv", "cholesky"])
def test_closed_form_3x3_matches_numpy_linalg_per_row(name):
    a, singular_or_nonfinite, not_positive_definite = _mixed_batch()
    b = np.random.default_rng(13).normal(size=(a.shape[0], 3))
    if name == "solve":
        out, bad = _solve3(a, b)
        ref, ref_bad = _per_row_reference(np.linalg.solve, a, b)
        expected = singular_or_nonfinite  # the indefinite row solves
    elif name == "inv":
        out, bad = _inv3(a)
        ref, ref_bad = _per_row_reference(np.linalg.inv, a)
        expected = singular_or_nonfinite
    else:
        out, bad = _cholesky3(a)
        ref, ref_bad = _per_row_reference(np.linalg.cholesky, a)
        expected = not_positive_definite
    assert np.flatnonzero(bad).tolist() == expected
    # On finite rows the failures are LAPACK's.  A row with a NaN or an inf
    # always fails, where LU may return a finite limit for a lone inf.
    finite = np.isfinite(a).all(axis=(1, 2))
    np.testing.assert_array_equal(bad[finite], ref_bad[finite])
    assert bad[~finite].all()
    assert _row_rel_err(out[~bad], ref[~bad]) <= REL_TOL


def test_hessian_term_contracts_the_full_hessian():
    pk = PkProblem()
    design = Design(default_config("pk").xi0)
    rng = np.random.default_rng(14)
    theta = pk.sample_prior(rng, 40)
    _, _, hess = pk.observation_derivs(design, theta, second=True)
    assert hess.shape == (6, 40, 15)
    weights = rng.normal(size=(40, 15))
    term = _hessian_term(hess, weights)
    expected = np.einsum("ntij,nt->nij", full_hessian(hess), weights)
    assert term.shape == (40, 3, 3)
    assert np.allclose(term, expected, rtol=1e-13, atol=0.0)
    assert np.array_equal(term, np.swapaxes(term, 1, 2))


def test_fit_rejects_a_model_without_three_latent_parameters():
    rng = np.random.default_rng(15)
    model = LinearGaussianModel(rng.normal(size=(6, 2)), rng.normal(size=6), noise_var=0.3,
                                prior_mean=np.zeros(2), prior_var=0.7)
    with pytest.raises(ContractViolationError):
        laplace_fit_batch(model, Design(np.arange(1.0, 7.0)), np.zeros((2, 2)), np.zeros((2, 6)))
