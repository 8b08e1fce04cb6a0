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

``TestCaseProblem.loglik_score`` works in place: the outer-only terms are
formed once per outer row, each channel is updated with ``out=`` in the
log buffer of the inner samples and in the two output buffers, and the two
channels are joined by one add.  The order of the floating-point operations
on each entry is fixed, the same as in the direct formula, so that every
output of the test case keeps its exact bits; reassociating it (say, forming
the channel sums with a matrix product) would change the last bits.
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
        self._gains_at = (None, None)    # (design bytes, gains) of the last design

    # -- prior --------------------------------------------------------------
    def sample_prior(self, rng, n):
        p = self.params
        z = rng.normal(p.mu, p.sigma0, size=(n, 2))
        return np.exp(z, out=z)

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

    # -- forward model --------------------------------------------------------
    def _gains(self, design: Design):
        """``(c, c')``, the gains and their derivatives, once per design value:
        every chunk of an estimate calls ``simulate`` and ``loglik_score``."""
        key = design.values.tobytes()
        at, gains = self._gains_at
        if key != at:
            xi = float(design.values[0])
            g, gp = gain_g(xi)
            h, hp = gain_h(xi)
            gains = np.array([g, h]), np.array([gp, hp])
            self._gains_at = (key, gains)
        return gains

    def simulate(self, design, theta, eps):
        self._check_dims(design, theta, eps)
        c, _ = self._gains(design)
        return np.exp(c * np.log(theta) + self.params.sigma_eps * eps)

    def loglik_score(self, design, theta, eps, theta_inner):
        self._check_dims(design, theta, eps)
        p = self.params
        c, cp = self._gains(design)
        var = p.sigma_eps**2
        # Outer-only terms, once per outer row: (n, 1, 2).
        lt = np.log(theta)[:, None, :]
        log_y = c * lt + p.sigma_eps * eps[:, None, :]
        const = -log_y - 0.5 * LOG_2PI - np.log(p.sigma_eps)
        jac = -cp * lt                           # Jacobian term -c' log(theta)
        # One channel at a time, so no loop runs along the length-2 axis.
        # Channel 0 works in the two output buffers; channel 1 in its own
        # log theta' slots and in channel 0's, which are spent by then.
        lti = np.log(theta_inner)                # (n, M, 2)
        log_rho = np.empty(lti.shape[:-1])
        score = np.empty(lti.shape[:-1])
        for k, resid, diff in ((0, log_rho, score), (1, lti[..., 1], lti[..., 0])):
            li = lti[..., k]
            np.subtract(lt[..., k], li, out=diff)
            np.multiply(li, c[k], out=resid)
            np.subtract(log_y[..., k], resid, out=resid)  # log y - c log theta'
            # Score: total d/dxi, the Jacobian term minus the residual term.
            diff *= cp[k]
            diff *= resid
            diff /= var
            np.subtract(jac[..., k], diff, out=diff)
            # Log-likelihood: the constant minus the squared residual term.
            np.square(resid, out=resid)
            resid /= 2 * var
            np.subtract(const[..., k], resid, out=resid)
        log_rho += lti[..., 1]
        score += lti[..., 0]
        score = score[..., None]                 # d = 1
        if not np.all(np.isfinite(log_rho)):
            raise NumericalDomainError(
                "non-finite log-likelihood", design=design.values, theta=theta, eps=eps
            )
        return log_rho, score
