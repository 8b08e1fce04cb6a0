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
its design score.  The simulator and the likelihood evaluate the mean
response and its time derivative with ``_mean_and_slope``; the Laplace fit
takes the response and its latent-derivatives from
:meth:`PkProblem.observation_derivs`.

The response is ``D k_a / V`` times the divided difference
``phi = (exp(-k_e T) - exp(-k_a T)) / (k_a - k_e)``, and every derivative of
phi is a further divided difference of the same two exponentials.  Both lie
in (0, 1], so nothing overflows, and the two are the only exponentials most
entries need.  Where ``|x| < 0.5`` with ``x = (k_a - k_e) T / 2`` the
differences would cancel; there, and through the removable singularity at
``k_a = k_e``, ``phi = T exp(-(k_a + k_e) T / 2) sinh(x)/x`` with
``sinh(x)/x`` and its derivatives from their power series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .model import LOG_2PI, ProblemModel


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
            raise ContractViolationError("dose and variances must be positive")


# sinh(x)/x = sum_n x^(2n) / (2n+1)!; through degree 10 the truncation error
# is below 1e-18 for x^2 <= 0.25.  _SINHC_D1 holds the series of S'(x)/x and
# _SINHC_D2 that of S''(x), both in powers of x^2.
_SINHC = (1.0, 1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0)
_SINHC_D1 = tuple(2 * n * c for n, c in enumerate(_SINHC) if n >= 1)
_SINHC_D2 = tuple(2 * n * (2 * n - 1) * c for n, c in enumerate(_SINHC) if n >= 1)


def _horner(coeff, y):
    acc = coeff[-1]
    for c in coeff[-2::-1]:
        acc = acc * y + c
    return acc


def _phi_derivs(u, w, T, order: int, out=None):
    """Scaled divided difference phi = (exp(-wT) - exp(-uT)) / (u - w) and derivatives.

    Returns ``(phi, phi_T)`` for ``order`` 0, ``(phi, phi_u, phi_w)`` for
    ``order`` 1, and for ``order`` 2 additionally ``(phi_uu, phi_ww,
    phi_uw)``, written into the three arrays of ``out`` if it is given.  ``u``, ``w`` and
    ``T`` are arrays that broadcast together, with ``u, w > 0`` and
    ``T >= 0``.  Stable uniformly in ``u - w``, including the confluent case
    ``u == w``.

    Work is done in place where it can be, which saves memory traffic.  Page
    faults are the allocator's business: the package keeps freed heap memory
    for reuse (see ``gradient``).
    """
    uT, wT = u * T, w * T
    eu = np.negative(uT)
    np.exp(eu, out=eu)
    ew = np.negative(wT)
    np.exp(ew, out=ew)
    dT = (u - w) * T                       # 2x, with x = (u - w) T / 2
    # Inside the band |x| < 0.5 the divided differences below cancel badly,
    # and the series in x replaces them.  Elsewhere they lose a few bits at
    # most, and exp(-uT), exp(-wT) <= 1 cannot overflow.
    # Flat indices (``take``/``put``) cost one index array per access, where
    # a 2-D or 3-D ``nonzero`` tuple costs one per axis.
    band = np.flatnonzero(np.abs(dT) < 1.0)
    xb, mTb = 0.5 * dT.take(band), 0.5 * (uT.take(band) + wT.take(band))
    dT.put(band, 1.0)
    s = np.reciprocal(dT, out=dT)

    # Each derivative is a power of T times a dimensionless factor: phi = T p,
    # phi_T = p_T, phi_u = T^2 p_u, phi_w = T^2 p_w, phi_uu = T^3 p_uu, ...
    if order == 0:
        p_T = uT                           # (uT eu - wT ew) / dT
        p_T *= eu
        wT *= ew
        p_T -= wT
        p_T *= s
    p = np.subtract(ew, eu, out=wT)        # (ew - eu) / dT
    p *= s
    if order >= 1:
        p_u = eu - p
        p_u *= s
        p_w = p - ew
        p_w *= s
    if order == 2:
        # -(eu + 2 p_u) / dT, (ew + 2 p_w) / dT, (p_u - p_w) / dT
        out = (eu, ew, None) if out is None else out
        p_uu = np.add(eu, p_u, out=out[0])
        p_uu += p_u
        p_uu *= s
        np.negative(p_uu, out=p_uu)
        p_ww = np.add(ew, p_w, out=out[1])
        p_ww += p_w
        p_ww *= s
        p_uw = np.subtract(p_u, p_w, out=out[2])
        p_uw *= s

    if band.size:
        # phi = T E S(x), with E = exp(-(u + w) T / 2) and S(x) = sinh(x)/x.
        y = xb * xb
        S, S1 = _horner(_SINHC, y), xb * _horner(_SINHC_D1, y)
        E = np.exp(-mTb)
        p.put(band, E * S)
        if order == 0:
            p_T.put(band, E * (S * (1.0 - mTb) + xb * S1))
        else:
            p_u.put(band, 0.5 * E * (S1 - S))
            p_w.put(band, -0.5 * E * (S1 + S))
        if order == 2:
            S2, q = _horner(_SINHC_D2, y), 0.25 * E
            p_uu.put(band, q * (S2 - 2 * S1 + S))
            p_ww.put(band, q * (S2 + 2 * S1 + S))
            p_uw.put(band, q * (S - S2))

    p *= T
    if order == 0:
        return p, p_T
    T2 = T * T
    p_u *= T2
    p_w *= T2
    if order == 1:
        return p, p_u, p_w
    T3 = T2 * T
    p_uu *= T3
    p_ww *= T3
    p_uw *= T3
    return p, p_u, p_w, p_uu, p_ww, p_uw


def _rates(theta, times, dose):
    """k_a, k_e and ``D k_a / V`` as ``(..., 1)`` columns, and the checked times."""
    theta = np.asarray(theta, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if (times < 0).any():
        raise ContractViolationError("sampling times must be nonnegative")
    a = theta[..., 0:1]
    u, w = np.exp(a), np.exp(theta[..., 1:2])
    return u, w, dose * np.exp(a - theta[..., 2:3]), times


def _mean_and_slope(theta, times, dose):
    """The mean response and its time derivative: what simulation and the likelihood use."""
    u, w, B, times = _rates(theta, times, dose)
    value, d_time = _phi_derivs(u, w, times, order=0)
    value *= B
    d_time *= B
    return value, d_time


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
        # Noise scales per noise column, (eps1, eps2) for each time in turn.
        self._noise_scale = np.tile(np.sqrt([self.params.sigma1_sq, self.params.sigma2_sq]),
                                    self.params.n_times)

    # -- prior --------------------------------------------------------------
    def sample_prior(self, rng, n):
        p = self.params
        return p.prior_mean + np.sqrt(p.prior_var) * rng.standard_normal((n, 3))

    def sample_noise(self, rng, n):
        eps = rng.standard_normal((n, self.s_noise))
        eps *= self._noise_scale
        return eps

    def prior_logpdf(self, theta):
        p = self.params
        z = np.asarray(theta, dtype=float) - p.prior_mean
        return (-0.5 * LOG_2PI - 0.5 * np.log(p.prior_var)
                - z**2 / (2 * p.prior_var)).sum(axis=-1)

    def prior_hessian(self, theta):
        """The constant ``(3, 3)`` Hessian of the Gaussian prior log-density."""
        return -np.eye(3) / self.params.prior_var

    # -- forward model --------------------------------------------------------
    def _split_noise(self, eps):
        eps = np.asarray(eps, dtype=float)
        eps = eps.reshape(eps.shape[:-1] + (self.params.n_times, 2))
        return eps[..., 0], eps[..., 1]

    def simulate(self, design, theta, eps):
        self._check_dims(design, theta, eps)
        e1, e2 = self._split_noise(eps)
        gbar, _ = _mean_and_slope(theta, design.values, self.params.dose)
        return gbar * (1.0 + e1) + e2

    def loglik_score(self, design, theta, eps, theta_inner):
        self._check_dims(design, theta, eps)
        p = self.params
        e1, e2 = self._split_noise(eps)
        y, dy = _mean_and_slope(theta, design.values, p.dose)
        dy *= 1.0 + e1                                     # d y_j / d xi_j
        y *= 1.0 + e1
        y += e2                                            # (n, 15)
        # Each (n, M, 15) array below is formed once and then updated in place.
        gbar_in, dT_in = _mean_and_slope(theta_inner, design.values, p.dose)
        var = gbar_in * gbar_in
        var *= p.sigma1_sq
        var += p.sigma2_sq
        r = y[:, None, :] - gbar_in
        # Per-time factor j depends only on xi_j, so the score is dense in j
        # and zero across times: components line up with the design vector.
        # With dvar = d var / d xi_j = 2 sigma1^2 gbar_in dT_in and
        # dr = d r / d xi_j = dy - dT_in it is
        # dvar / (2 var) (r^2 / var - 1) - r dr / var.
        half_dlogvar = np.multiply(gbar_in, dT_in, out=gbar_in)
        half_dlogvar *= p.sigma1_sq
        half_dlogvar /= var                                # dvar / (2 var)
        r_dr = np.subtract(dy[:, None, :], dT_in, out=dT_in)
        r_dr *= r
        r_dr /= var                                        # r dr / var
        q = np.multiply(r, r, out=r)                       # r^2 / var
        q /= var
        log_var = np.log(var, out=var)
        log_var += q
        log_var += LOG_2PI
        log_rho = -0.5 * log_var.sum(axis=-1)
        score = q
        score -= 1.0
        score *= half_dlogvar
        score -= r_dr
        return log_rho, score

    # -- Laplace-fit hooks ----------------------------------------------------
    def observation_derivs(self, design, theta, second: bool):
        """Mean concentration at each sampling time and its latent-derivatives,
        ``(value, grad, hess)``.

        ``theta`` has shape ``(..., 3)`` in log-parameters and the design
        holds ``k`` times.  The shapes are ``(..., k)``, ``(..., k, 3)`` and
        ``(6, ..., k)``; all theta-derivatives are taken with respect to the
        log-parameters (the time derivative is ``_mean_and_slope``'s).  The
        Hessian is symmetric, so only its six distinct entries are returned:
        the upper triangle row by row, ``(0, 0), (0, 1), (0, 2), (1, 1), (1,
        2), (2, 2)``, each with the time axis last.  Without ``second`` the
        Hessian is not formed and ``None`` is returned in its place.
        """
        u, w, B, times = _rates(theta, design.values, self.params.dose)
        hess = out = None
        if second:
            hess = np.empty((6,) + np.broadcast_shapes(u.shape, times.shape))
            out = (hess[0], hess[3], hess[1])
        res = _phi_derivs(u, w, times, order=2 if second else 1, out=out)
        value, up, wp = res[:3]
        value *= B
        up *= u                                # u phi_u
        wp *= w                                # w phi_w
        grad = np.empty(value.shape + (3,))
        g_a = np.multiply(up, B, out=grad[..., 0])
        g_a += value                           # B (phi + u phi_u)
        g_e = np.multiply(wp, B, out=grad[..., 1])
        np.negative(value, out=grad[..., 2])
        if not second:
            return value, grad, None
        h_aa, h_ee, h_ae = res[3:]             # phi_uu, phi_ww, phi_uw, in hess
        h_aa *= u * u                          # B (phi + 3 u phi_u + u^2 phi_uu)
        h_aa += 3 * up
        h_aa *= B
        h_aa += value
        h_ae *= u * w                          # B (w phi_w + u w phi_uw)
        h_ae += wp
        h_ae *= B
        h_ee *= w * w                          # B (w phi_w + w^2 phi_ww)
        h_ee += wp
        h_ee *= B
        np.negative(g_a, out=hess[2])
        np.negative(g_e, out=hess[4])
        hess[5] = value
        return value, grad, hess

    def observation_variance(self, value):
        """Per-component observation variance as a function of the mean."""
        return self.params.sigma1_sq * value**2 + self.params.sigma2_sq
