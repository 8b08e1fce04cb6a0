"""Monte Carlo estimators for the gradient of the expected information gain.

* :func:`unbiased_gradient` -- the randomized-level debiased estimator that
  averages ``delta_psi_l / w_l`` over outer samples, with antithetic (two
  half-batches averaged) or naive (single half-batch) corrections.
* :func:`standard_gradient` -- the biased fixed-M nested MC estimator, which
  is the same estimator under a point mass at level 0 with ``m0 = M``.

All of these, the EIG estimators and the decay study run on one core over
fixed-size chunks of outer samples.  A chunk draws its levels first (a point
mass draws nothing), then all its outer samples sorted by level, then makes
one proposal fit and one inner draw.  The likelihood is evaluated once per
chunk, and one segmented reduction forms every half-batch sum under its own
max shift (inner averages are self-normalized, immune to underflow).  Each
chunk owns a deterministic RNG sub-stream, so results are bit-reproducible
for a fixed master seed no matter how many workers are used.

The reduction builds its segment indices from the level groups alone.  A
sample has one segment per half of its inner rows, or one for the whole
batch if it is not split (level 0), after a one-row segment for its self row
if it has one (only the lowest level group can).  So the segment lengths
are one repeat of the per-group half sizes with the first group's pattern
written over them, the starts are their running sum, and each sample's
first-half segment is an ``arange``.  The closing scatter back to the drawn
order sorts the levels as one-byte keys.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .levels import LevelWeights
from .model import Design, ProblemModel
from .rng import CHUNK_SIZE, PHASE_GRADIENT, chunk_sizes, stream


@dataclass(frozen=True)
class GradientEstimate:
    grad: np.ndarray
    n_outer: int
    total_cost: int
    per_sample_sq_norm_mean: float
    n_fallback: int  # outer samples whose proposal fell back to the prior


# ---------------------------------------------------------------------------
# the flat evaluation


def _segment_sums(log_w, scores, starts, lengths):
    """Per segment of ``lengths[k]`` flat rows from ``starts[k]``: the max log
    weight, the sum of shifted weights and, when ``scores (N, d)`` is given,
    the sum of shifted weights times scores."""
    top = np.maximum.reduceat(log_w, starts)
    lin = np.exp(log_w - top.repeat(lengths))
    den = np.add.reduceat(lin, starts)
    num = None if scores is None else np.add.reduceat(lin[:, None] * scores, starts, axis=0)
    return top, den, num


def _reduce(log_w, scores, counts, m, has_self, split, antithetic):
    """``(delta, psi)`` of every outer sample, in group order, from flat rows.

    Group ``g`` holds ``counts[g]`` samples, each its self row (if
    ``has_self[g]``) then ``m[g]`` inner rows, in two halves if ``split[g]``.
    Only the first group can have self rows, and every other group is split.
    The inner average is the score ratio, or without ``scores`` the log mean
    likelihood; ``delta`` is ``coarse - fine`` if split, else ``self - fine``.
    """
    counts, m = np.asarray(counts), np.asarray(m)
    n = int(counts.sum())
    c0, head_self, head_split = int(counts[0]), bool(has_self[0]), bool(split[0])
    # Segments in row order.  A sample without a self row has two halves of
    # m/2 rows; one of the first group with self rows has the self row, then
    # either m inner rows or two halves.  ``ia`` and ``ib`` index each
    # sample's first and second half (both its inner batch if unsplit).
    split = np.ones(n, dtype=bool)
    if head_self and head_split:             # a single group
        lengths = np.full((n, 3), m[0] // 2)
        lengths[:, 0] = 1
        lengths = lengths.ravel()
        ia = np.arange(1, 3 * n, 3)
    else:
        lengths = (m // 2).repeat(2 * counts)
        ia = np.arange(0, 2 * n, 2)
        if head_self:
            lengths[: 2 * c0 : 2] = 1
            lengths[1 : 2 * c0 : 2] = m[0]
            ia[:c0] += 1
            split[:c0] = False
    starts = lengths.cumsum()
    starts -= lengths
    ib = ia + split
    row0 = starts[ia]
    if head_self:
        row0[:c0] -= 1

    top, den, num = _segment_sums(log_w, scores, starts, lengths)
    top_a, top_b, den_a, den_b = top[ia], top[ib], den[ia], den[ib]
    shift = np.maximum(top_a, top_b)
    ca = np.exp(top_a - shift)
    cb = np.where(split, np.exp(top_b - shift), 0.0)
    den_f = ca * den_a + cb * den_b
    if scores is None:
        self_term = log_w[row0]
        half = top + np.log(den) - np.log(lengths)
        fine = shift + np.log(den_f) - np.log(m.repeat(counts))
    else:
        self_term = scores[row0]
        half = num / den[:, None]
        fine = (ca[:, None] * num[ia] + cb[:, None] * num[ib]) / den_f[:, None]
        split = split[:, None]
    coarse = 0.5 * (half[ia] + half[ib]) if antithetic else half[ia]
    psi = self_term - fine
    return np.where(split, coarse - fine, psi), psi


def _draw_outer(model: ProblemModel, design: Design, n: int, rng):
    theta = model.sample_prior(rng, n)
    eps = model.sample_noise(rng, n)
    y = model.simulate(design, theta, eps)
    return theta, eps, y


def _chunk_variables(
    model, design, proposal_factory, rng, levels, m0, *,
    scored=True, antithetic=True, with_psi=False,
):
    """``(delta, psi, n_fallback)`` of one chunk, in the order of ``levels``.

    A level-``l`` sample has ``m0 * 2**l`` inner samples; ``delta`` is its
    correction variable (psi itself at level 0), ``psi`` the fine-level psi
    variable (``None`` unless ``with_psi``, which needs a single level).
    The outer samples are drawn in one call, sorted by level.  The one
    proposal fit takes a level-``l`` sample as ``2**(l - l_min)`` equal rows,
    and the one inner draw gives each row ``m0 * 2**l_min`` samples, so a
    sample's rows hold its inner samples, first half first.  One
    ``loglik_score`` call uses the ``(n, M)`` shape when all samples share
    one ``M``, else the ``(N, 1)`` shape with outer rows repeated; without
    ``scored`` its scores are dropped and the variables are log mean
    likelihoods.
    """
    bins = np.bincount(levels)
    lv = np.flatnonzero(bins)
    counts = bins[lv]
    if with_psi and lv.size > 1:
        raise ContractViolationError("the fine-level psi needs a single level per chunk")
    m = m0 * 2**lv
    split = lv > 0
    has_self = ~split | with_psi
    theta, eps, y = _draw_outer(model, design, levels.size, rng)
    reps = (2 ** (lv - lv[0])).repeat(counts)
    fitted = proposal_factory.fit(
        model, design, *(a.repeat(reps, axis=0) for a in (theta, eps, y)))
    theta_in, corr = fitted.sample_inner(rng, int(m[0]))

    # Only the first level group can have self rows (level 0, or the single
    # level of a ``with_psi`` chunk): they go before each sample's inner rows.
    # Rebinding ``theta_in`` and ``corr`` frees the draws before the likelihood
    # call, so its arrays can reuse their memory.
    n0 = int(counts[0])
    if has_self[0]:
        head = np.concatenate([theta[:n0, None, :], theta_in[:n0]], axis=1)
        head_corr = np.concatenate([np.zeros((n0, 1)), corr[:n0]], axis=1)
        if lv.size == 1:
            theta_in, corr = head, head_corr
        else:
            theta_in = np.concatenate([head.reshape(-1, model.s),
                                       theta_in[n0:].reshape(-1, model.s)])
            corr = np.concatenate([head_corr.ravel(), corr[n0:].ravel()])
    if lv.size == 1:
        log_rho, scores = model.loglik_score(design, theta, eps, theta_in)
    else:
        rep = (m + has_self).repeat(counts)
        log_rho, scores = model.loglik_score(
            design, theta.repeat(rep, axis=0), eps.repeat(rep, axis=0),
            theta_in.reshape(-1, 1, model.s))
    log_w = log_rho.ravel() + corr.ravel()
    scores = scores.reshape(log_w.size, -1) if scored else None

    delta, psi = _reduce(log_w, scores, counts, m, has_self, split, antithetic)
    if lv.size > 1:
        # Back from level order to the order of ``levels`` (a stable sort of
        # one-byte keys, levels being at most ``MAX_LEVEL``).
        out = np.empty_like(delta)
        out[np.argsort(levels.astype(np.uint8), kind="stable")] = delta
        delta = out
    return delta, (psi if with_psi else None), fitted.n_fallback


def _run_chunks(n_outer, seed, phase, base_index, threads, chunk_fn, chunk=CHUNK_SIZE):
    """Termwise sums of ``chunk_fn(rng, n)`` over the chunks of ``n_outer``.

    Chunk ``i`` draws from sub-stream ``(seed, phase, base_index + i)``, so
    the sums do not depend on ``threads``.
    """
    jobs = list(enumerate(chunk_sizes(n_outer, chunk)))

    def work(job):
        i, n = job
        return chunk_fn(stream(seed, phase, base_index + i), n)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]
    return [sum(terms) for terms in zip(*results)]


# ---------------------------------------------------------------------------
# estimators


def _debiased_sums(
    model, design, n_outer, weights: LevelWeights, proposal_factory, seed, *,
    threads, phase, base_index, scored, antithetic=True,
):
    """``[sum, sum of squared norms, inner cost, fallbacks]`` of ``var_l / w_l``
    over ``n_outer`` samples with levels drawn from ``weights``, where ``var``
    is the gradient variable if ``scored``, else the EIG variable."""
    if n_outer < 1:
        raise ContractViolationError("n_outer must be at least 1")

    def chunk(rng, n):
        levels = weights.sample_levels(rng, n)
        var, _, n_fallback = _chunk_variables(
            model, design, proposal_factory, rng, levels, weights.m0,
            scored=scored, antithetic=antithetic,
        )
        # w_l and the inner cost once per level up to the chunk's highest.
        counts = np.bincount(levels)
        lv = np.arange(counts.size)
        w = weights.weight(lv)[levels]
        contrib = var / (w[:, None] if scored else w)
        sq_norm = (contrib**2).reshape(n, -1).sum(axis=1)
        cost = int(weights.inner_samples(lv) @ counts)
        return contrib.sum(axis=0), sq_norm.sum(), cost, n_fallback

    return _run_chunks(n_outer, seed, phase, base_index, threads, chunk)


def _gradient_estimate(n_outer, sums) -> GradientEstimate:
    grad_sum, sq_sum, total_cost, n_fallback = sums
    return GradientEstimate(
        grad=grad_sum / n_outer,
        n_outer=n_outer,
        total_cost=total_cost,
        per_sample_sq_norm_mean=sq_sum / n_outer,
        n_fallback=n_fallback,
    )


def unbiased_gradient(
    model: ProblemModel,
    design: Design,
    n_outer: int,
    weights: LevelWeights,
    proposal_factory,
    seed: int,
    *,
    threads: int = 1,
    phase: int = PHASE_GRADIENT,
    base_index: int = 0,
    antithetic: bool = True,
) -> GradientEstimate:
    """Debiased randomized-level gradient estimate over ``n_outer`` samples.

    The level of each outer sample is drawn i.i.d. from ``weights``; each
    sample contributes ``delta_psi_l / w_l``.  Sub-streams are indexed by
    ``(seed, phase, base_index + chunk)``, making the result independent of
    ``threads``.
    """
    sums = _debiased_sums(
        model, design, n_outer, weights, proposal_factory, seed, threads=threads,
        phase=phase, base_index=base_index, scored=True, antithetic=antithetic,
    )
    return _gradient_estimate(n_outer, sums)


def standard_gradient(
    model: ProblemModel,
    design: Design,
    n_outer: int,
    m_inner: int,
    proposal_factory,
    seed: int,
    *,
    threads: int = 1,
    phase: int = PHASE_GRADIENT,
    base_index: int = 0,
) -> GradientEstimate:
    """Biased fixed-M nested MC gradient estimate: the debiased estimator
    under a point mass at level 0 with ``m0 = m_inner``."""
    if m_inner < 1:
        raise ContractViolationError("m_inner must be at least 1")
    return unbiased_gradient(
        model, design, n_outer, LevelWeights(m0=m_inner, w0_override=1.0),
        proposal_factory, seed, threads=threads, phase=phase, base_index=base_index,
    )
