"""The PK mean-response kernel against the sinh(x)/x form it replaced.

``_phi_derivs_reference`` and ``_sinhc_series_reference`` are the earlier
kernel, kept verbatim: three branches (``|x| > 300``, ``|x| < 0.5`` series,
``sinh``/``cosh`` in between) on ``x = (u - w) T / 2``.  Each of the seven
outputs of :func:`mlmc_boed.pk._phi_derivs` must agree with it within
``RTOL`` times the largest magnitude of that output over the sampling times
of the same row, a tolerance fixed before the rewrite, at every derivative
order that returns it (``phi_T`` at order 0, the theta-derivatives at
orders 1 and 2).
"""

import numpy as np
import pytest

from mlmc_boed.pk import PkParams, _phi_derivs

RTOL = 1e-10
OUTPUTS = ("phi", "phi_u", "phi_w", "phi_T", "phi_uu", "phi_ww", "phi_uw")


def _sinhc_series_reference(x_sq):
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


def _phi_derivs_reference(u, w, T, second: bool):
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
            s, s1_over_x, s2 = _sinhc_series_reference(xs[tiny] ** 2)
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


def _assert_matches_reference(u, w, T):
    """Compare both kernels row by row; the last axis holds the times."""
    want = dict(zip(OUTPUTS, _phi_derivs_reference(u, w, T, second=True)))
    assert np.array_equal(_phi_derivs_reference(u, w, T, second=False),
                          [want[name] for name in OUTPUTS[:4]])
    derivs = OUTPUTS[:3] + OUTPUTS[4:]               # phi_T comes at order 0 only
    for order, names in enumerate((("phi", "phi_T"), OUTPUTS[:3], derivs)):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _phi_derivs(u, w, T, order)
        assert len(got) == len(names)
        for name, g in zip(names, got):
            r = want[name]
            assert g.shape == r.shape, name
            scale = np.max(np.abs(r), axis=-1, keepdims=True)
            err = np.abs(g - r)
            assert np.all(err <= RTOL * scale), (order, name, float(np.max(err / scale)))


def _rate_columns(theta):
    return np.exp(theta[:, 0:1]), np.exp(theta[:, 1:2])


def test_prior_draws_at_default_times():
    p = PkParams()
    theta = p.prior_mean + np.sqrt(p.prior_var) * np.random.default_rng(0).standard_normal(
        (10_000, 3))
    u, w = _rate_columns(theta)
    _assert_matches_reference(u, w, np.arange(1.0, p.n_times + 1.0))


def test_wide_draws_on_a_grid_from_time_zero():
    p = PkParams()
    theta = p.prior_mean + 4 * np.sqrt(p.prior_var) * np.random.default_rng(1).standard_normal(
        (5_000, 3))
    times = np.linspace(0.0, 24.0, 49)
    assert times[0] == 0.0
    u, w = _rate_columns(theta)
    _assert_matches_reference(u, w, times)


@pytest.mark.parametrize("x", [0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.0])
def test_series_band_edge_and_confluent_rates(x):
    # Rows of rates (u, w) with (u - w) T / 2 = x at every time of the row,
    # then with u and w swapped for -x.
    times = np.array([0.25, 1.0, 3.0, 10.0, 24.0])
    w = np.array([[0.05], [0.3], [1.7]])
    u = w + 2.0 * x / times
    w = np.broadcast_to(w, u.shape)
    _assert_matches_reference(u, w, times)
    _assert_matches_reference(w, u, times)


def test_equal_rates_include_time_zero():
    u = np.array([[0.01], [0.5], [2.0], [40.0]])
    _assert_matches_reference(u, u, np.array([0.0, 0.5, 2.0, 12.0, 24.0]))


def test_far_separated_rates():
    # (u - w) T / 2 > 300 at every time; exp(-u T) underflows for the largest u.
    times = np.array([1.0, 2.0, 8.0, 24.0])
    w = np.array([[0.02], [0.1], [0.9], [1000.0]])
    u = w + np.array([[700.0], [2981.0], [610.0], [3000.0]])
    _assert_matches_reference(u, w, times)
    _assert_matches_reference(w, u, times)
