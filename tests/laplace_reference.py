"""Shared test models and the LAPACK reference of the Laplace fit.

``LinearGaussianModel`` is the conjugate model behind the exactness checks
of ``test_laplace.py`` and acceptance criterion 09.  ``reference_fit_batch``
and ``reference_fit`` are the Laplace fit as it was written on
``numpy.linalg`` (LU solve, inverse, Cholesky, with a row-by-row retry when
a batched call raises) and on the full ``(n, t, 3, 3)`` observation Hessian;
the package's closed-form 3x3 fit is compared against them.
"""

import numpy as np

from mlmc_boed.model import LOG_2PI, ProblemModel

# Component k of a packed Hessian is entry SYM_INDEX[k] of the upper triangle.
SYM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def full_hessian(hess):
    """The ``(..., t, 3, 3)`` Hessian of a packed ``(6, ..., t)`` one."""
    full = np.empty(hess.shape[1:] + (3, 3))
    for k, (i, j) in enumerate(SYM_INDEX):
        full[..., i, j] = full[..., j, i] = hess[k]
    return full


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

    def prior_hessian(self, theta):
        return -np.eye(self.s) / self.prior_var

    def observation_derivs(self, design, theta, second: bool):
        theta = np.asarray(theta, dtype=float)
        value = theta @ self.A.T + self.b
        grad = np.broadcast_to(self.A, theta.shape[:-1] + self.A.shape).copy()
        hess = None
        if second:
            hess = np.zeros((self.s * (self.s + 1) // 2,) + value.shape)
        return value, grad, hess

    def observation_variance(self, value):
        return np.full_like(value, self.noise_var)


# ---------------------------------------------------------------------------
# LAPACK reference: the fit before its closed-form 3x3 rewrite, verbatim but
# for the one line that expands the packed Hessian.


def _per_row(op, fill, mats, *rest):
    bad = np.zeros(mats.shape[0], dtype=bool)
    try:
        out = op(mats, *rest)
    except np.linalg.LinAlgError:
        out = fill.copy()
        for i in range(mats.shape[0]):
            try:
                out[i] = op(mats[i], *(r[i] for r in rest))
            except np.linalg.LinAlgError:
                bad[i] = True
    bad |= ~np.isfinite(out).reshape(bad.size, -1).all(axis=1)
    return out, bad


def reference_fit_batch(model, design, theta_star, y):
    theta_star = np.asarray(theta_star, dtype=float)
    y = np.asarray(y, dtype=float)

    gbar, grad, hess = model.observation_derivs(design, theta_star, second=True)
    hess = full_hessian(hess)
    n, t, s = grad.shape
    s_eps = model.observation_variance(gbar)
    E = y - gbar
    prior_hess = model.prior_hessian(theta_star)

    GtSinv = np.swapaxes(grad / s_eps[..., None], 1, 2)
    Hterm = ((E / s_eps)[:, None, :] @ hess.reshape(n, t, s * s)).reshape(n, s, s)
    A = GtSinv @ grad - Hterm - prior_hess
    step, bad = _per_row(np.linalg.solve, np.zeros((n, s, 1)), A, GtSinv @ E[..., None])
    means = theta_star + step[..., 0]
    means[bad] = theta_star[bad]

    gbar_hat, grad_hat, _ = model.observation_derivs(design, means, second=False)
    s_hat = model.observation_variance(gbar_hat)
    prior_hess_hat = model.prior_hessian(means)
    prec = np.swapaxes(grad_hat / s_hat[..., None], 1, 2) @ grad_hat - prior_hess_hat
    covs, bad_inv = _per_row(np.linalg.inv, np.broadcast_to(np.eye(s), prec.shape), prec)
    fallback = bad | bad_inv
    return means, covs, fallback


def _equal_runs(theta, y):
    """``(starts, lengths)`` of the runs of consecutive rows equal in both."""
    same = (theta[1:] == theta[:-1]).all(axis=1) & (y[1:] == y[:-1]).all(axis=1)
    starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
    return starts, np.diff(np.append(starts, theta.shape[0]))


def reference_fit(model, design, theta, eps, y):
    """``(means, covs, chols, fallback, runs)`` of ``LaplaceProposalFactory.fit``."""
    starts, runs = _equal_runs(theta, y)
    means, covs, fallback = reference_fit_batch(model, design, theta[starts], y[starts])
    chols = np.broadcast_to(np.eye(model.s), covs.shape).copy()
    ok = ~fallback
    if np.any(ok):
        chols[ok], fallback[ok] = _per_row(np.linalg.cholesky, chols[ok], covs[ok])
    return means, covs, chols, fallback, runs
