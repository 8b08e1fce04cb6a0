"""Per-level loop reference for the estimators of ``mlmc_boed``.

This is the straightforward form the flat core replaces: every level group
of a chunk makes its own likelihood call and its own log-sum-exp reductions.
It consumes the random streams in exactly the same order as the package
(levels first, then per level group in increasing level order: outer
samples, proposal fit, inner samples), so ``test_flat_core.py`` compares the
two sample for sample.
"""

from math import log, sqrt

import numpy as np
from scipy.special import logsumexp

from mlmc_boed.gradient import _draw_outer
from mlmc_boed.rng import CHUNK_SIZE, PHASE_DECAY, PHASE_EIG, PHASE_GRADIENT, chunk_sizes, stream


def _ratio(log_w, scores):
    lin = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return np.einsum("nm,nmd->nd", lin, scores) / lin.sum(axis=-1)[:, None]


def _inner(model, design, factory, theta, eps, y, m, rng, scored):
    fitted = factory.fit(model, design, theta, eps, y)
    theta_in, corr = fitted.sample_inner(rng, m)
    if scored:
        log_rho, scores = model.loglik_score(design, theta, eps, theta_in)
        return log_rho + corr, scores, fitted.n_fallback
    return model.loglik_score(design, theta, eps, theta_in)[0] + corr, None, fitted.n_fallback


def correction_samples(model, design, level, m, factory, rng, n, antithetic=True):
    """``(delta, psi_fine, n_fallback)`` of ``n`` samples at ``level``."""
    theta, eps, y = _draw_outer(model, design, n, rng)
    log_w, scores, n_fb = _inner(model, design, factory, theta, eps, y, m, rng, True)
    self_score = model.loglik_score(design, theta, eps, theta[:, None, :])[1][:, 0]
    ratio_f = _ratio(log_w, scores)
    if level == 0:
        delta = self_score - ratio_f
    else:
        half = m // 2
        ratio_a = _ratio(log_w[:, :half], scores[:, :half])
        if antithetic:
            ratio_b = _ratio(log_w[:, half:], scores[:, half:])
            delta = 0.5 * (ratio_a + ratio_b) - ratio_f
        else:
            delta = ratio_a - ratio_f
    return delta, self_score - ratio_f, n_fb


def eig_samples(model, design, level, m, factory, rng, n):
    """``(phi, n_fallback)``: the level's EIG variable for ``n`` samples."""
    theta, eps, y = _draw_outer(model, design, n, rng)
    log_w, _, n_fb = _inner(model, design, factory, theta, eps, y, m, rng, False)
    if level == 0:
        self_ll = model.loglik_score(design, theta, eps, theta[:, None, :])[0][:, 0]
        return self_ll - (logsumexp(log_w, axis=-1) - log(m)), n_fb
    half = m // 2
    lse_f = logsumexp(log_w, axis=-1)
    lse_a = logsumexp(log_w[:, :half], axis=-1)
    lse_b = logsumexp(log_w[:, half:], axis=-1)
    return 0.5 * (lse_a + lse_b) - lse_f + log(2.0), n_fb


def _chunks(n_outer, seed, phase, base_index, chunk_fn, chunk=CHUNK_SIZE):
    totals = None
    for i, n in enumerate(chunk_sizes(n_outer, chunk)):
        res = chunk_fn(stream(seed, phase, base_index + i), n)
        totals = res if totals is None else [a + b for a, b in zip(totals, res)]
    return totals


def _level_loop(weights, rng, n, sample_fn, d_shape):
    levels = weights.sample_levels(rng, n)
    contrib = np.empty((n,) + d_shape)
    n_fb = 0
    for lvl in np.unique(levels):
        idx = np.flatnonzero(levels == lvl)
        var, fb = sample_fn(int(lvl), int(weights.inner_samples(lvl)), idx.size)
        contrib[idx] = var / weights.weight(int(lvl))
        n_fb += fb
    return contrib, int(weights.inner_samples(levels).sum()), n_fb


def unbiased_gradient(model, design, n_outer, weights, factory, seed, *,
                      phase=PHASE_GRADIENT, base_index=0, antithetic=True):
    """``(grad, per_sample_sq_norm_mean, total_cost, n_fallback)``."""
    def chunk(rng, n):
        def sample(lvl, m, k):
            delta, _, fb = correction_samples(model, design, lvl, m, factory, rng, k, antithetic)
            return delta, fb
        contrib, cost, fb = _level_loop(weights, rng, n, sample, (model.d,))
        return contrib.sum(axis=0), (contrib**2).sum(axis=1).sum(), cost, fb

    g, sq, cost, fb = _chunks(n_outer, seed, phase, base_index, chunk)
    return g / n_outer, sq / n_outer, cost, fb


def standard_gradient(model, design, n_outer, m_inner, factory, seed, *,
                      phase=PHASE_GRADIENT, base_index=0):
    def chunk(rng, n):
        psi, _, fb = correction_samples(model, design, 0, m_inner, factory, rng, n)
        return psi.sum(axis=0), (psi**2).sum(axis=1).sum(), n * m_inner, fb

    g, sq, cost, fb = _chunks(n_outer, seed, phase, base_index, chunk)
    return g / n_outer, sq / n_outer, cost, fb


def _eig(n_outer, sums):
    total, total_sq, cost, fb = sums
    mean = total / n_outer
    return mean, sqrt(max(total_sq / n_outer - mean**2, 0.0) / n_outer), cost, fb


def eig_nested(model, design, n_outer, m_inner, factory, seed, *, base_index=0):
    """``(value, std_error, total_inner_cost, n_fallback)``."""
    def chunk(rng, n):
        phi, fb = eig_samples(model, design, 0, m_inner, factory, rng, n)
        return phi.sum(), (phi**2).sum(), n * m_inner, fb

    return _eig(n_outer, _chunks(n_outer, seed, PHASE_EIG, base_index, chunk))


def eig_unbiased_mlmc(model, design, n_outer, weights, factory, seed, *, base_index=0):
    def chunk(rng, n):
        def sample(lvl, m, k):
            return eig_samples(model, design, lvl, m, factory, rng, k)
        contrib, cost, fb = _level_loop(weights, rng, n, sample, ())
        return contrib.sum(), (contrib**2).sum(), cost, fb

    return _eig(n_outer, _chunks(n_outer, seed, PHASE_EIG, base_index, chunk))


def decay_rows(model, design, levels, samples_per_level, weights, factory, seed, *,
               antithetic=True):
    """``[(level, mean_sq_psi, mean_sq_delta, n_samples), ...]``."""
    rows = []
    for lvl in range(levels):
        m = int(weights.inner_samples(lvl))

        def chunk(rng, n):
            delta, psi, _ = correction_samples(model, design, lvl, m, factory, rng, n, antithetic)
            return float((delta**2).sum()), float((psi**2).sum()), n

        sq_delta, sq_psi, done = _chunks(samples_per_level, seed, PHASE_DECAY, lvl * 100_000,
                                         chunk, chunk=max(1, 2**22 // m))
        rows.append((lvl, sq_psi / done, sq_delta / done, done))
    return rows
