"""Closed-form lognormal benchmark problem.

Two independent lognormal latent parameters are observed through two
lognormal channels whose log-scale gains ``g(xi)`` and ``h(xi)`` depend on a
scalar design ``xi > 0``:

    Y1 = exp(g(xi) * log(theta1) + sigma_eps * eps1),
    Y2 = exp(h(xi) * log(theta2) + sigma_eps * eps2),

with ``g(xi) = exp(-xi^2 / 2)`` and ``h(xi) = sqrt(3/2 * (1 - exp(-xi^2)))``.
The expected information gain and its Jensen upper bound are available in
closed form, which makes this problem the main verification vehicle for the
gradient estimators (see :mod:`mlmc_boed.eig`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalDomainError
from .model import LOG_2PI, Design, ProblemModel

# X = R_{>0} is open; the projectable realization keeps xi strictly positive.
XI_LOWER = 1e-8


@dataclass(frozen=True)
class TestCaseParams:
    mu: float = 0.0
    sigma0: float = 1.0
    sigma_eps: float = 1.0

    def __post_init__(self):
        if self.sigma0 <= 0 or self.sigma_eps <= 0:
            raise DomainError("sigma0 and sigma_eps must be positive")


def gain_g(xi: float) -> tuple[float, float]:
    """Channel-1 gain ``g(xi)`` and its derivative."""
    g = np.exp(-0.5 * xi**2)
    return float(g), float(-xi * g)


def gain_h(xi: float) -> tuple[float, float]:
    """Channel-2 gain ``h(xi)`` and its derivative."""
    h_sq = -1.5 * np.expm1(-(xi**2))
    h = np.sqrt(h_sq)
    # d(h^2)/dxi = 3 xi exp(-xi^2); h' = that / (2 h)
    return float(h), float(3.0 * xi * np.exp(-(xi**2)) / (2.0 * h))


class TestCaseProblem(ProblemModel):
    """ProblemModel wiring for the lognormal test case (d=1, s=2, s'=2, t=2)."""

    d = 1
    s = 2
    s_noise = 2
    t = 2

    def __init__(self, params: TestCaseParams | None = None):
        self.params = params or TestCaseParams()

    def default_design(self) -> Design:
        return Design(values=np.array([1.5]), lower=np.array([XI_LOWER]))

    # -- prior --------------------------------------------------------------
    def sample_prior(self, rng, n):
        p = self.params
        return np.exp(rng.normal(p.mu, p.sigma0, size=(n, 2)))

    def sample_noise(self, rng, n):
        return rng.standard_normal((n, 2))

    def prior_logpdf(self, theta):
        p = self.params
        theta = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lt = np.log(theta)
            lp = -lt - 0.5 * LOG_2PI - np.log(p.sigma0) - (lt - p.mu) ** 2 / (2 * p.sigma0**2)
        lp = np.where(theta > 0, lp, -np.inf)
        return lp.sum(axis=-1)

    def prior_logpdf_derivs(self, theta):
        p = self.params
        theta = np.asarray(theta, dtype=float)
        if np.any(theta <= 0):
            raise DomainError("lognormal prior support is theta > 0")
        lt = np.log(theta)
        logpdf = self.prior_logpdf(theta)
        z = (lt - p.mu) / p.sigma0**2
        grad = (-1.0 - z) / theta
        hess_diag = (1.0 + z - 1.0 / p.sigma0**2) / theta**2
        hess = np.zeros(theta.shape + (2,))
        idx = np.arange(2)
        hess[..., idx, idx] = hess_diag
        return logpdf, grad, hess

    # -- forward model --------------------------------------------------------
    def _gains(self, design: Design):
        xi = float(design.values[0])
        g, gp = gain_g(xi)
        h, hp = gain_h(xi)
        return np.array([g, h]), np.array([gp, hp])

    def simulate(self, design, theta, eps):
        self._check_dims(design, theta, eps)
        c, _ = self._gains(design)
        return np.exp(c * np.log(theta) + self.params.sigma_eps * eps)

    def loglik_score(self, design, theta, eps, theta_inner):
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
