"""Per-level loop reference for the estimators of ``mlmc_boed``.

This is the straightforward form the flat core replaces: every level group
of a chunk makes its own likelihood call and its own log-sum-exp reductions.
It consumes the random streams in exactly the same order as the package
(levels first, then the chunk's outer samples sorted by level, one proposal
fit with each level-``l`` sample repeated ``2**(l - l_min)`` times, and one
inner draw of ``m0 * 2**l_min`` samples per fit row), so
``test_flat_core.py`` compares the two sample for sample.
"""

from math import log, sqrt

import numpy as np
from scipy.special import logsumexp

from mlmc_boed.rng import CHUNK_SIZE, PHASE_DECAY, PHASE_EIG, PHASE_GRADIENT, chunk_sizes, stream


def _ratio(log_w, scores):
    lin = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return np.einsum("nm,nmd->nd", lin, scores) / lin.sum(axis=-1)[:, None]


def _draw_outer(model, design, n, rng):
    """``(theta, eps, y)`` of ``n`` outer samples: prior, then noise."""
    theta = model.sample_prior(rng, n)
    eps = model.sample_noise(rng, n)
    return theta, eps, model.simulate(design, theta, eps)


def _groups(model, design, factory, rng, levels, m0):
    """``([(level, index, theta, eps, theta_in, corr), ...], n_fallback)``,
    one group per level in increasing order; ``index`` locates the group's
    samples in ``levels``."""
    order = np.argsort(levels, kind="stable")
    lv = levels[order]
    theta, eps, y = _draw_outer(model, design, lv.size, rng)
    reps = 2 ** (lv - lv[0])
    fitted = factory.fit(model, design, *(np.repeat(a, reps, axis=0) for a in (theta, eps, y)))
    theta_in, corr = fitted.sample_inner(rng, m0 * 2 ** int(lv[0]))
    groups, row = [], 0
    for lvl in np.unique(lv):
        idx = np.flatnonzero(lv == lvl)
        rows = idx.size * 2 ** int(lvl - lv[0])
        m = m0 * 2 ** int(lvl)
        groups.append((int(lvl), order[idx], theta[idx], eps[idx],
                       theta_in[row:row + rows].reshape(idx.size, m, model.s),
                       corr[row:row + rows].reshape(idx.size, m)))
        row += rows
    return groups, fitted.n_fallback


def correction_samples(model, design, level, theta, eps, theta_in, corr, antithetic=True):
    """``(delta, psi_fine)`` of one level group."""
    log_rho, scores = model.loglik_score(design, theta, eps, theta_in)
    log_w = log_rho + corr
    self_score = model.loglik_score(design, theta, eps, theta[:, None, :])[1][:, 0]
    ratio_f = _ratio(log_w, scores)
    if level == 0:
        delta = self_score - ratio_f
    else:
        half = log_w.shape[1] // 2
        ratio_a = _ratio(log_w[:, :half], scores[:, :half])
        if antithetic:
            ratio_b = _ratio(log_w[:, half:], scores[:, half:])
            delta = 0.5 * (ratio_a + ratio_b) - ratio_f
        else:
            delta = ratio_a - ratio_f
    return delta, self_score - ratio_f


def eig_samples(model, design, level, theta, eps, theta_in, corr):
    """The level's EIG variable for one level group."""
    log_w = model.loglik_score(design, theta, eps, theta_in)[0] + corr
    m = log_w.shape[1]
    if level == 0:
        self_ll = model.loglik_score(design, theta, eps, theta[:, None, :])[0][:, 0]
        return self_ll - (logsumexp(log_w, axis=-1) - log(m))
    half = m // 2
    lse_f = logsumexp(log_w, axis=-1)
    lse_a = logsumexp(log_w[:, :half], axis=-1)
    lse_b = logsumexp(log_w[:, half:], axis=-1)
    return 0.5 * (lse_a + lse_b) - lse_f + log(2.0)


def _chunks(n_outer, seed, phase, base_index, chunk_fn, chunk=CHUNK_SIZE):
    totals = None
    for i, n in enumerate(chunk_sizes(n_outer, chunk)):
        res = chunk_fn(stream(seed, phase, base_index + i), n)
        totals = res if totals is None else [a + b for a, b in zip(totals, res)]
    return totals


def _level_loop(model, design, factory, levels, weights, rng, sample_fn, d_shape):
    groups, n_fb = _groups(model, design, factory, rng, levels, weights.m0)
    contrib = np.empty((levels.size,) + d_shape)
    for lvl, idx, *draws in groups:
        contrib[idx] = sample_fn(lvl, *draws) / weights.weight(lvl)
    return contrib, int(weights.inner_samples(levels).sum()), n_fb


def unbiased_gradient(model, design, n_outer, weights, factory, seed, *,
                      phase=PHASE_GRADIENT, base_index=0, antithetic=True):
    """``(grad, per_sample_sq_norm_mean, total_cost, n_fallback)``."""
    def chunk(rng, n):
        def sample(lvl, *draws):
            return correction_samples(model, design, lvl, *draws, antithetic)[0]
        levels = weights.sample_levels(rng, n)
        contrib, cost, fb = _level_loop(model, design, factory, levels, weights, rng,
                                        sample, (model.d,))
        return contrib.sum(axis=0), (contrib**2).sum(axis=1).sum(), cost, fb

    g, sq, cost, fb = _chunks(n_outer, seed, phase, base_index, chunk)
    return g / n_outer, sq / n_outer, cost, fb


def standard_gradient(model, design, n_outer, m_inner, factory, seed, *,
                      phase=PHASE_GRADIENT, base_index=0):
    def chunk(rng, n):
        ((_, _, *draws),), fb = _groups(model, design, factory, rng,
                                        np.zeros(n, dtype=np.int64), m_inner)
        psi, _ = correction_samples(model, design, 0, *draws)
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
        ((_, _, *draws),), fb = _groups(model, design, factory, rng,
                                        np.zeros(n, dtype=np.int64), m_inner)
        phi = eig_samples(model, design, 0, *draws)
        return phi.sum(), (phi**2).sum(), n * m_inner, fb

    return _eig(n_outer, _chunks(n_outer, seed, PHASE_EIG, base_index, chunk))


def eig_unbiased_mlmc(model, design, n_outer, weights, factory, seed, *, base_index=0):
    def chunk(rng, n):
        def sample(lvl, *draws):
            return eig_samples(model, design, lvl, *draws)
        levels = weights.sample_levels(rng, n)
        contrib, cost, fb = _level_loop(model, design, factory, levels, weights, rng,
                                        sample, ())
        return contrib.sum(), (contrib**2).sum(), cost, fb

    return _eig(n_outer, _chunks(n_outer, seed, PHASE_EIG, base_index, chunk))


def decay_rows(model, design, levels, samples_per_level, weights, factory, seed, *,
               antithetic=True):
    """``[(level, mean_sq_psi, mean_sq_delta, n_samples), ...]``."""
    rows = []
    for lvl in range(levels):
        m = int(weights.inner_samples(lvl))

        def chunk(rng, n):
            ((_, _, *draws),), _ = _groups(model, design, factory, rng,
                                           np.full(n, lvl), weights.m0)
            delta, psi = correction_samples(model, design, lvl, *draws, antithetic)
            return float((delta**2).sum()), float((psi**2).sum()), n

        sq_delta, sq_psi, done = _chunks(samples_per_level, seed, PHASE_DECAY, lvl * 100_000,
                                         chunk, chunk=max(1, 2**22 // m))
        rows.append((lvl, sq_psi / done, sq_delta / done, done))
    return rows
