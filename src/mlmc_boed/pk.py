"""One-compartment pharmacokinetic benchmark problem.

A fixed dose ``D`` is administered at time zero; blood samples are taken at
the 15 design times ``xi = (xi_1, ..., xi_15)``.  The mean concentration at
time ``T`` under latent log-parameters ``theta = (log k_a, log k_e, log V)``
is

    gbar_T(theta) = D k_a / (V (k_a - k_e)) * (exp(-k_e T) - exp(-k_a T)),

and each observation mixes multiplicative and additive Gaussian noise:

    Y_j = gbar_{xi_j}(theta) * (1 + eps1_j) + eps2_j.

The per-time likelihood is the full normal density
``N(y_j; gbar_j(theta'), gbar_j(theta')^2 sigma1^2 + sigma2^2)`` including the
theta'-dependent normalizer.  It has one implementation,
:meth:`PkProblem.loglik_score`, which returns the log-density together with
its design score; :func:`pk_mean_response` is the one evaluation of the mean
response and its derivatives behind the simulator, the likelihood and the
Laplace fit.

The removable singularity at ``k_a = k_e`` is handled by evaluating the
exponential divided difference through ``sinh(x)/x``, which is smooth through
``x = 0``; no special-case branch on ``|k_a - k_e|`` is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalDomainError
from .model import Design, ProblemModel

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class PkParams:
    dose: float = 400.0
    prior_mean: np.ndarray = field(
        default_factory=lambda: np.array([0.0, np.log(0.1), np.log(20.0)])
    )
    prior_var: float = 0.05
    sigma1_sq: float = 0.01   # multiplicative noise variance
    sigma2_sq: float = 0.1    # additive noise variance
    n_times: int = 15

    def __post_init__(self):
        if self.dose <= 0 or self.prior_var <= 0 or self.sigma1_sq <= 0 or self.sigma2_sq <= 0:
            raise DomainError("dose and variances must be positive")


def _sinhc_series(x_sq):
    """sinh(x)/x and its first two derivatives in x, via even power series.

    Accurate for ``x^2 <= 0.25``; the truncation error of the degree-10
    series is below 1e-18 there.
    """
    # sinh(x)/x = sum x^{2n}/(2n+1)!
    coeff = [1.0, 1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0]
    s = sum(c * x_sq**n for n, c in enumerate(coeff))
    # S'(x)/x = sum 2n x^{2n-2}/(2n+1)!  (we return S' as x * that)
    s1_over_x = sum(2 * n * c * x_sq ** (n - 1) for n, c in enumerate(coeff) if n >= 1)
    s2 = sum(2 * n * (2 * n - 1) * c * x_sq ** (n - 1) for n, c in enumerate(coeff) if n >= 1)
    return s, s1_over_x, s2


def _phi_derivs(u, w, T, second: bool):
    """Scaled divided difference phi = (exp(-wT) - exp(-uT)) / (u - w) and derivatives.

    Returns ``(phi, phi_u, phi_w, phi_T)`` and, when ``second`` is true,
    additionally ``(phi_uu, phi_ww, phi_uw)``.  All inputs broadcast.
    Stable uniformly in ``u - w``, including the confluent case ``u == w``.
    """
    u, w, T = np.broadcast_arrays(*np.atleast_1d(u, w, T))
    shape = u.shape
    u, w, T = u.ravel(), w.ravel(), T.ravel()
    x = 0.5 * (u - w) * T
    m = 0.5 * (u + w)

    out = [np.empty_like(x) for _ in range(7 if second else 4)]

    # Large separation: the naive formulas are cancellation-free and avoid
    # sinh overflow.
    big = np.abs(x) > 300.0
    if np.any(big):
        ub, wb, Tb = u[big], w[big], T[big]
        eu, ew, duw = np.exp(-ub * Tb), np.exp(-wb * Tb), ub - wb
        phi = (ew - eu) / duw
        phi_u = (Tb * eu - phi) / duw
        phi_w = (phi - Tb * ew) / duw
        phi_T = (ub * eu - wb * ew) / duw
        vals = [phi, phi_u, phi_w, phi_T]
        if second:
            vals += [
                (-(Tb**2) * eu - 2 * phi_u) / duw,
                (Tb**2 * ew + 2 * phi_w) / duw,
                (phi_u - phi_w) / duw,
            ]
        for o, v in zip(out, vals):
            o[big] = v

    sm = ~big
    if np.any(sm):
        xs, ms, Ts = x[sm], m[sm], T[sm]
        tiny = np.abs(xs) < 0.5
        S = np.empty_like(xs)
        S1 = np.empty_like(xs)
        S2 = np.empty_like(xs)
        if np.any(tiny):
            s, s1_over_x, s2 = _sinhc_series(xs[tiny] ** 2)
            S[tiny] = s
            S1[tiny] = xs[tiny] * s1_over_x
            S2[tiny] = s2
        if np.any(~tiny):
            xb = xs[~tiny]
            sh, ch = np.sinh(xb), np.cosh(xb)
            S[~tiny] = sh / xb
            S1[~tiny] = (ch - sh / xb) / xb
            S2[~tiny] = (sh - 2 * (ch - sh / xb) / xb) / xb
        E = np.exp(-ms * Ts)
        phi = Ts * E * S
        phi_u = 0.5 * Ts**2 * E * (S1 - S)
        phi_w = -0.5 * Ts**2 * E * (S1 + S)
        phi_T = E * (S * (1.0 - ms * Ts) + xs * S1)
        vals = [phi, phi_u, phi_w, phi_T]
        if second:
            q = 0.25 * Ts**3 * E
            vals += [q * (S2 - 2 * S1 + S), q * (S2 + 2 * S1 + S), q * (S - S2)]
        for o, v in zip(out, vals):
            o[sm] = v

    return tuple(o.reshape(shape) for o in out)


def pk_mean_response(theta: np.ndarray, times: np.ndarray, dose: float = 400.0,
                     second: bool = True):
    """Mean concentration and its derivatives at each sampling time.

    ``theta`` has shape ``(..., 3)`` in log-parameters; ``times`` has shape
    ``(k,)``.  Returns ``(value, d_time, grad_theta, hess_theta)`` with shapes
    ``(..., k)``, ``(..., k)``, ``(..., k, 3)`` and ``(..., k, 3, 3)``; all
    theta-derivatives are taken with respect to the log-parameters.  Without
    ``second`` the Hessian is not formed and ``None`` is returned in its place.
    """
    theta = np.asarray(theta, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise DomainError("sampling times must be nonnegative")
    a = theta[..., 0:1]
    e = theta[..., 1:2]
    v = theta[..., 2:3]
    u, w = np.exp(a), np.exp(e)
    B = dose * np.exp(a - v)
    res = _phi_derivs(u, w, times, second=second)
    phi, phi_u, phi_w, phi_T = res[:4]
    value = B * phi
    d_time = B * phi_T
    g_a = B * (phi + u * phi_u)
    g_e = B * w * phi_w
    g_v = -value
    grad = np.stack([g_a, g_e, g_v], axis=-1)
    if not second:
        return value, d_time, grad, None
    phi_uu, phi_ww, phi_uw = res[4:]
    h_aa = B * (phi + 3 * u * phi_u + u**2 * phi_uu)
    h_ae = B * (w * phi_w + u * w * phi_uw)
    h_ee = B * (w * phi_w + w**2 * phi_ww)
    hess = np.empty(value.shape + (3, 3))
    hess[..., 0, 0] = h_aa
    hess[..., 0, 1] = hess[..., 1, 0] = h_ae
    hess[..., 0, 2] = hess[..., 2, 0] = -g_a
    hess[..., 1, 1] = h_ee
    hess[..., 1, 2] = hess[..., 2, 1] = -g_e
    hess[..., 2, 2] = value
    return value, d_time, grad, hess


class PkProblem(ProblemModel):
    """ProblemModel wiring for the PK design problem (d=t=15, s=3, s'=30).

    The noise vector interleaves per-time components as
    ``(eps1_1, eps2_1, ..., eps1_15, eps2_15)``.
    """

    def __init__(self, params: PkParams | None = None):
        self.params = params or PkParams()
        self.d = self.t = self.params.n_times
        self.s = 3
        self.s_noise = 2 * self.params.n_times

    def default_design(self) -> Design:
        k = self.params.n_times
        return Design(
            values=np.arange(1.0, k + 1.0),
            lower=np.zeros(k),
            upper=np.full(k, 24.0),
        )

    # -- prior --------------------------------------------------------------
    def sample_prior(self, rng, n):
        p = self.params
        return p.prior_mean + np.sqrt(p.prior_var) * rng.standard_normal((n, 3))

    def sample_noise(self, rng, n):
        p = self.params
        eps = rng.standard_normal((n, p.n_times, 2))
        eps[..., 0] *= np.sqrt(p.sigma1_sq)
        eps[..., 1] *= np.sqrt(p.sigma2_sq)
        return eps.reshape(n, -1)

    def prior_logpdf(self, theta):
        p = self.params
        z = np.asarray(theta, dtype=float) - p.prior_mean
        return (-0.5 * LOG_2PI - 0.5 * np.log(p.prior_var)
                - z**2 / (2 * p.prior_var)).sum(axis=-1)

    def prior_logpdf_derivs(self, theta):
        p = self.params
        theta = np.asarray(theta, dtype=float)
        logpdf = self.prior_logpdf(theta)
        grad = -(theta - p.prior_mean) / p.prior_var
        hess = np.broadcast_to(
            -np.eye(3) / p.prior_var, theta.shape[:-1] + (3, 3)
        ).copy()
        return logpdf, grad, hess

    # -- forward model --------------------------------------------------------
    def _split_noise(self, eps):
        eps = np.asarray(eps, dtype=float)
        eps = eps.reshape(eps.shape[:-1] + (self.params.n_times, 2))
        return eps[..., 0], eps[..., 1]

    def simulate(self, design, theta, eps):
        self._check_dims(design, theta, eps)
        e1, e2 = self._split_noise(eps)
        gbar, _, _, _ = pk_mean_response(theta, design.values, self.params.dose, second=False)
        return gbar * (1.0 + e1) + e2

    def loglik_score(self, design, theta, eps, theta_inner):
        self._check_dims(design, theta, eps)
        p = self.params
        e1, e2 = self._split_noise(eps)
        gbar_out, dT_out, _, _ = pk_mean_response(theta, design.values, p.dose, second=False)
        y = gbar_out * (1.0 + e1) + e2                     # (n, 15)
        dy = dT_out * (1.0 + e1)                           # d y_j / d xi_j
        gbar_in, dT_in, _, _ = pk_mean_response(theta_inner, design.values, p.dose, second=False)
        var = p.sigma1_sq * gbar_in**2 + p.sigma2_sq       # (n, M, 15)
        r = y[:, None, :] - gbar_in
        log_rho = (-0.5 * (LOG_2PI + np.log(var)) - r**2 / (2 * var)).sum(axis=-1)
        dvar = 2.0 * p.sigma1_sq * gbar_in * dT_in
        # Per-time factor j depends only on xi_j, so the score is dense in j
        # and zero across times: components line up with the design vector.
        score = (-dvar / (2 * var)
                 - r * (dy[:, None, :] - dT_in) / var
                 + r**2 * dvar / (2 * var**2))
        if not np.all(np.isfinite(log_rho)):
            raise NumericalDomainError(
                "non-finite PK log-likelihood", design=design.values, theta=theta
            )
        return log_rho, score

    # -- Laplace-fit hooks ----------------------------------------------------
    def observation_derivs(self, design, theta, second: bool):
        """Mean observation and its latent-derivatives, ``(value, grad, hess)``."""
        value, _, grad, hess = pk_mean_response(theta, design.values, self.params.dose, second)
        return value, grad, hess

    def observation_variance(self, value):
        """Per-component observation variance as a function of the mean."""
        return self.params.sigma1_sq * value**2 + self.params.sigma2_sq
