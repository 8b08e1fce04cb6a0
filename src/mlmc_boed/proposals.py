"""Importance distributions for the inner expectation.

Two families are provided: the prior itself (importance correction is
identically zero) and a Gaussian fitted per outer sample by a Laplace
approximation of the posterior around the known outer latent value.

For the PK problem, with ``J = -grad gbar``, ``H = -hess gbar``,
``E = y - gbar(theta*)`` and ``S = diag(sigma1^2 gbar_j^2 + sigma2^2)``:

    theta_hat = theta* - (J'S^-1 J + sum_j H_j E_j / S_jj - prior_hess)^-1 J'S^-1 E
    Sigma_hat = (J(theta_hat)' S(theta_hat)^-1 J(theta_hat) - prior_hess)^-1

where S is evaluated at theta* in the first equation and rebuilt at
theta_hat in the second.  The model supplies ``H`` packed, as the six
distinct entries of each symmetric 3x3 Hessian (see
:meth:`ProblemModel.observation_derivs`), so the fit needs ``s = 3``; its
linear algebra is closed-form 3x3 algebra on arrays of outer samples (the
Newton step and ``Sigma_hat`` by adjugate and determinant, then the lower
Cholesky factor of ``Sigma_hat``).

The prior is substituted as the proposal for an outer sample, and the event
is counted, when

- the Newton matrix has determinant 0, or the step is not finite (the step
  is then dropped and ``theta_hat = theta*``);
- the precision has determinant 0, or ``Sigma_hat`` has an entry that is not
  finite;
- a Cholesky pivot of ``Sigma_hat`` is not positive, or the factor has an
  entry that is not finite.

A matrix with a NaN or an infinite entry always has a non-finite
determinant, so it falls back.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError
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
        chols, bad = _cholesky3(covs)
        fallback |= bad
        chols[fallback] = np.eye(3)
        return FittedGaussian(model, means, chols, fallback, runs)


# ---------------------------------------------------------------------------
# Laplace fit

# Packed Hessian component of each entry of a symmetric 3x3 matrix, row-major.
_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
# Row-major flat indices of the four entries behind each cofactor
# C_ij = a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1]; taken mod 3, the
# indices carry the cofactor's sign (-1)^(i+j) by themselves.
_COF = np.array([[3 * ((i + r) % 3) + (j + c) % 3 for i in range(3) for j in range(3)]
                 for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))])
# Row-major flat indices of the lower triangle.
_LOWER = np.array([0, 3, 4, 6, 7, 8])


def _hessian_term(hess, weights):
    """``sum_t weights[n, t] hess_t`` as ``(n, 3, 3)``, from the packed ``(6, n, t)``."""
    packed = np.einsum("knt,nt->nk", hess, weights)
    return packed[:, _SYM].reshape(-1, 3, 3)


def _cofactors(a):
    """Cofactors ``C[i, j]``, as ``(3, 3, n)``, and determinants of the 3x3 matrices ``a``."""
    m = a.reshape(-1, 9).T
    f = m[_COF]
    cof = f[0] * f[1] - f[2] * f[3]
    det = (m[:3] * cof[:3]).sum(axis=0)
    return cof.reshape(3, 3, -1), det


def _solve3(a, b):
    """``a^-1 b`` per row by the adjugate, with a failure mask.

    A row fails where its solution is not finite, as it is wherever the
    determinant is 0.
    """
    with np.errstate(all="ignore"):
        cof, det = _cofactors(a)
        x = (cof * b.T[:, None]).sum(axis=0) / det         # sum_j C_ji b_j / det
    return x.T, ~np.isfinite(x).all(axis=0)


def _inv3(a):
    """``a^-1`` per row by the adjugate, with a failure mask.

    A row fails where an entry is not finite, as it is wherever the
    determinant is 0.
    """
    with np.errstate(all="ignore"):
        cof, det = _cofactors(a)
        inv = cof.T / det[:, None, None]                    # C_ji / det
    return inv, ~np.isfinite(inv).all(axis=(1, 2))


def _cholesky3(a):
    """Lower Cholesky factors of the 3x3 matrices ``a``, with a failure mask.

    Only the lower triangle is read.  A row fails where a pivot is not
    positive or an entry is not finite.
    """
    a00, a10, a11, a20, a21, a22 = a.reshape(-1, 9).T[_LOWER]
    chol = np.zeros((9, a00.size))                          # row-major entries
    with np.errstate(all="ignore"):
        l00 = np.sqrt(a00, out=chol[0])
        r0 = 1.0 / l00
        l10 = np.multiply(a10, r0, out=chol[3])
        l20 = np.multiply(a20, r0, out=chol[6])
        piv1 = a11 - l10 * l10
        l11 = np.sqrt(piv1, out=chol[4])
        l21 = np.multiply(a21 - l20 * l10, 1.0 / l11, out=chol[7])
        piv2 = a22 - (l20 * l20 + l21 * l21)
        np.sqrt(piv2, out=chol[8])
    ok = (a00 > 0) & (piv1 > 0) & (piv2 > 0) & np.isfinite(chol).all(axis=0)
    return chol.T.reshape(-1, 3, 3), ~ok


def laplace_fit_batch(model, design: Design, theta_star, y):
    """Vectorized Laplace fit for ``n`` outer samples.

    ``model`` must expose ``observation_derivs`` / ``observation_variance``
    alongside the usual prior derivatives, and have ``s = 3`` latent
    parameters.  Returns ``(means (n,s), covs (n,s,s), fallback (n,))``.
    """
    if model.s != 3:
        raise ContractViolationError(
            f"the Laplace fit needs 3 latent parameters, the model has {model.s}")
    theta_star = np.asarray(theta_star, dtype=float)
    y = np.asarray(y, dtype=float)

    gbar, grad, hess = model.observation_derivs(design, theta_star, second=True)
    s_eps = model.observation_variance(gbar)      # evaluated at theta* here
    E = y - gbar
    prior_hess = model.prior_hessian(theta_star)

    # J = -grad and H = -hess; the signs are folded into the products below.
    GtSinv = np.swapaxes(grad / s_eps[..., None], 1, 2)           # -J'S^-1, (n, s, t)
    A = GtSinv @ grad - _hessian_term(hess, E / s_eps) - prior_hess
    step, bad = _solve3(A, (GtSinv @ E[..., None])[..., 0])
    means = theta_star + step                     # theta* - A^-1 J'S^-1 E
    means[bad] = theta_star[bad]

    gbar_hat, grad_hat, _ = model.observation_derivs(design, means, second=False)
    s_hat = model.observation_variance(gbar_hat)
    prec = (np.swapaxes(grad_hat / s_hat[..., None], 1, 2) @ grad_hat
            - model.prior_hessian(means))
    covs, bad_inv = _inv3(prec)
    return means, covs, bad | bad_inv
