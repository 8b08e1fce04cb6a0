"""Importance distributions for the inner expectation.

Two families are provided: the prior itself (importance correction is
identically zero) and a Gaussian fitted per outer sample by a Laplace
approximation of the posterior around the known outer latent value.

For the PK problem, with ``J = -grad gbar``, ``H = -hess gbar``,
``E = y - gbar(theta*)`` and ``S = diag(sigma1^2 gbar_j^2 + sigma2^2)``:

    theta_hat = theta* - (J'S^-1 J + sum_j H_j E_j / S_jj - prior_hess)^-1 J'S^-1 E
    Sigma_hat = (J(theta_hat)' S(theta_hat)^-1 J(theta_hat) - prior_hess)^-1

where S is evaluated at theta* in the first equation and rebuilt at
theta_hat in the second.  If either linear solve fails to be positive
definite, the prior is substituted as the proposal for that outer sample and
the event is counted.
"""

from __future__ import annotations

import numpy as np

from .model import LOG_2PI, Design, ProblemModel, equal_runs


# ---------------------------------------------------------------------------
# fitted-proposal objects


class FittedPrior:
    """Inner sampling from the prior: log pi0 - log q == 0 identically."""

    n_fallback = 0

    def __init__(self, model: ProblemModel, n: int):
        self.model = model
        self.n = n

    def sample_inner(self, rng, m: int):
        theta = self.model.sample_prior(rng, self.n * m).reshape(self.n, m, self.model.s)
        return theta, np.zeros((self.n, m))


class FittedGaussian:
    """Gaussian proposals N(mean_k, cov_k), one per run of ``runs[k]`` rows.

    A run is one outer sample, passed to the fit as consecutive equal rows;
    every row gets its own ``m`` inner samples.  Runs flagged in
    ``fallback`` sample every row from the prior instead (their importance
    correction is exactly zero), and ``n_fallback`` counts those runs.
    """

    def __init__(self, model, means, chols, fallback, runs):
        self.model = model
        self.means = means
        self.chols = chols  # lower Cholesky factors, one (s, s) per run
        self.fallback = fallback
        self.runs = runs
        self.n = int(runs.sum())
        self.n_fallback = int(fallback.sum())

    def sample_inner(self, rng, m: int):
        s = self.model.s
        z = rng.standard_normal((self.n, m, s))
        logdet = np.log(np.diagonal(self.chols, axis1=-2, axis2=-1)).sum(axis=-1)
        means, chols, logdet = (np.repeat(a, self.runs, axis=0)
                                for a in (self.means, self.chols, logdet))
        theta = means[:, None, :] + np.einsum("nij,nmj->nmi", chols, z)
        log_q = (-0.5 * s * LOG_2PI - logdet[:, None]
                 - 0.5 * (z**2).sum(axis=-1))
        corr = self.model.prior_logpdf(theta) - log_q
        if self.n_fallback:
            mask = np.repeat(self.fallback, self.runs)
            n_fb = int(mask.sum())
            theta[mask] = self.model.sample_prior(rng, n_fb * m).reshape(n_fb, m, s)
            corr[mask] = 0.0
        return theta, corr


# ---------------------------------------------------------------------------
# factories


class PriorProposalFactory:
    name = "prior"

    def fit(self, model, design, theta, eps, y):
        return FittedPrior(model, theta.shape[0])


class LaplaceProposalFactory:
    """Gaussian importance proposals from a per-outer-sample Laplace fit.

    ``fit`` takes one row per block of inner samples; an outer sample's
    rows are equal and consecutive, and are fitted once.
    """

    name = "laplace"

    def fit(self, model: ProblemModel, design: Design, theta, eps, y):
        # Each run of equal (theta, y) rows is one outer sample: fit it once.
        starts, runs = equal_runs(theta, y)
        means, covs, fallback = laplace_fit_batch(model, design, theta[starts], y[starts])
        chols = np.broadcast_to(np.eye(model.s), covs.shape).copy()
        ok = ~fallback
        if np.any(ok):
            chols[ok], fallback[ok] = _per_row(np.linalg.cholesky, chols[ok], covs[ok])
        return FittedGaussian(model, means, chols, fallback, runs)


# ---------------------------------------------------------------------------
# Laplace fit


def _per_row(op, fill, mats, *rest):
    """``op`` over a batch of matrices, with a per-row failure mask.

    If the batched call raises ``LinAlgError``, each row is retried alone;
    a row that still fails keeps its ``fill`` value.  Returns ``(out, bad)``
    where ``bad`` marks failed rows and rows with non-finite entries.
    """
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


def laplace_fit_batch(model, design: Design, theta_star, y):
    """Vectorized Laplace fit for ``n`` outer samples.

    ``model`` must expose ``observation_derivs`` / ``observation_variance``
    alongside the usual prior derivatives.  Returns
    ``(means (n,s), covs (n,s,s), fallback (n,))``.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    y = np.asarray(y, dtype=float)

    gbar, grad, hess = model.observation_derivs(design, theta_star, second=True)
    n, t, s = grad.shape
    s_eps = model.observation_variance(gbar)      # evaluated at theta* here
    E = y - gbar
    _, _, prior_hess = model.prior_logpdf_derivs(theta_star)

    # J = -grad and H = -hess; the signs are folded into the products below.
    GtSinv = np.swapaxes(grad / s_eps[..., None], 1, 2)           # -J'S^-1, (n, s, t)
    Hterm = ((E / s_eps)[:, None, :] @ hess.reshape(n, t, s * s)).reshape(n, s, s)
    A = GtSinv @ grad - Hterm - prior_hess
    step, bad = _per_row(np.linalg.solve, np.zeros((n, s, 1)), A, GtSinv @ E[..., None])
    means = theta_star + step[..., 0]             # theta* - A^-1 J'S^-1 E
    means[bad] = theta_star[bad]

    gbar_hat, grad_hat, _ = model.observation_derivs(design, means, second=False)
    s_hat = model.observation_variance(gbar_hat)
    _, _, prior_hess_hat = model.prior_logpdf_derivs(means)
    prec = np.swapaxes(grad_hat / s_hat[..., None], 1, 2) @ grad_hat - prior_hess_hat
    covs, bad_inv = _per_row(np.linalg.inv, np.broadcast_to(np.eye(s), prec.shape), prec)
    fallback = bad | bad_inv
    return means, covs, fallback
