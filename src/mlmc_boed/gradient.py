"""Monte Carlo estimators for the gradient of the expected information gain.

* :func:`unbiased_gradient` -- the randomized-level debiased estimator that
  averages ``delta_psi_l / w_l`` over outer samples, with antithetic (two
  half-batches averaged) or naive (single half-batch) corrections.
  The biased fixed-M nested MC estimator is the same estimator under a
  point mass at level 0 with ``m0 = M``:
  ``unbiased_gradient(..., LevelWeights(m0=M, w0_override=1.0), ...)``.

All of these, the EIG estimators and the decay study run over fixed-size
chunks of outer samples, their batches (below) on ``threads`` workers.  A
chunk is the unit of randomness: it owns a deterministic RNG sub-stream, so
results are bit-reproducible for a fixed master seed no matter how many
workers are used.  A chunk draws its levels first (a point mass draws
nothing), which are counted once, then all its outer samples sorted by
level, then makes one proposal fit and one inner draw.  The fit
takes a level-``l`` sample as ``2**(l - l_min)`` equal rows, ``l_min``
being the chunk's lowest level, and the draw gives each fit row ``m0 *
2**l_min`` inner samples, so that a sample's rows hold its ``m0 * 2**l``
inner samples, first half first.

A batch is the unit of evaluation, and one budget of ``_BLOCK_ENTRIES``
likelihood entries (fit rows times width times ``model.t``) bounds every
likelihood call but the self call.  The levels give each chunk's level
groups before any draw, so they plan the batches and their blocks at once
(``_plan``): a batch is a run of consecutive chunks of one estimate that
share the fit-row width ``m0 * 2**l_min`` and hold at most the budget
together, or one chunk with more.  A batch within the budget is one block
of all its fit rows; a wider chunk is cut within its level groups into
blocks of the fit rows of whole samples, each within the budget (or one
sample), so that array passes stay near cache size.  Each batch then draws
its chunks and evaluates them at once.  One likelihood call evaluates every
sample's self term, at its own latent value, in the ``(n, 1)`` shape.  Each
block makes one call on its fit rows as drawn, ``(rows, m0 * 2**l_min)``,
and one segmented reduction forms every half-batch sum under its own max
shift (inner averages are self-normalized, immune to underflow).  Every
value depends only on its own sample's rows, so neither batch nor block
boundaries change a bit, and each chunk's sums are still taken over its own
samples, in its drawn order.

The reduction reads inner rows only, and builds its segment indices from the
level groups alone.  A sample has one segment per half of its inner rows, or
one for its whole batch if its group is not split (level 0: each chunk of a
batch brings its own level groups, so a level-0 group can be any of them).
So the segment lengths are one repeat of the per-group segment sizes, the
starts are their running sum, and each sample's first segment is the
running sum of its segment counts.  The closing scatter puts both variables
back in each chunk's drawn order, sorting its levels as one-byte keys.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

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


def _reduce(log_w, scores, self_term, counts, m, split, antithetic):
    """``(delta, psi)`` of every outer sample, in group order, from flat rows
    of inner samples and each sample's self term.

    Group ``g`` holds ``counts[g]`` samples of ``m[g]`` inner rows, in two
    halves if ``split[g]``, else as one whole batch.  The inner average is
    the score ratio, or without ``scores`` the log mean likelihood, and
    ``self_term`` the self score or self log-likelihood to match; ``delta``
    is ``coarse - fine`` if split, else ``self - fine``.
    """
    counts, m, split = np.asarray(counts), np.asarray(m), np.asarray(split)
    # Segments in row order: each sample's two halves of m/2 rows, or its
    # whole batch if unsplit.  ``ia`` and ``ib`` index each sample's first
    # and second half (both its whole batch if unsplit).
    segs = 1 + split                              # segments of a sample, per group
    lengths = (m // segs).repeat(segs * counts)
    segs = segs.repeat(counts)
    ia = segs.cumsum()
    ia -= segs
    split = split.repeat(counts)
    ib = ia + split
    starts = lengths.cumsum()
    starts -= lengths

    top, den, num = _segment_sums(log_w, scores, starts, lengths)
    top_a, top_b, den_a, den_b = top[ia], top[ib], den[ia], den[ib]
    shift = np.maximum(top_a, top_b)
    ca = np.exp(top_a - shift)
    cb = np.where(split, np.exp(top_b - shift), 0.0)
    den_f = ca * den_a + cb * den_b
    if scores is None:
        half = top + np.log(den) - np.log(lengths)
        fine = shift + np.log(den_f) - np.log(m.repeat(counts))
    else:
        half = num / den[:, None]
        fine = (ca[:, None] * num[ia] + cb[:, None] * num[ib]) / den_f[:, None]
        split = split[:, None]
    coarse = 0.5 * (half[ia] + half[ib]) if antithetic else half[ia]
    psi = self_term - fine
    return np.where(split, coarse - fine, psi), psi


# Likelihood entries (fit rows times width times ``model.t``) that one
# likelihood call may hold: narrow chunks of one estimate join into a batch
# up to this size, and a wider chunk is cut into blocks of whole samples
# within it, so that array passes stay near the size of a core's cache.
# 2**16 entries join the four chunks of a test-case or PK step and cut a
# test-case `decay` level of 500 samples from level 7 on.
_BLOCK_ENTRIES = 2**16


class _Draw(NamedTuple):
    """Every draw of one chunk.  ``levels`` is in drawn order; ``theta`` and
    ``eps`` are the outer samples in level order, ``theta_rows`` and
    ``eps_rows`` their fit rows, and ``inner`` and ``corr`` the inner draw
    and its importance correction."""

    levels: np.ndarray
    theta: np.ndarray
    eps: np.ndarray
    theta_rows: np.ndarray
    eps_rows: np.ndarray
    inner: np.ndarray
    corr: np.ndarray
    n_fallback: int


# The fields of its chunks' draws that a batch joins, taken by name.
_JOINED = attrgetter("theta", "eps", "theta_rows", "eps_rows", "inner", "corr")


def _draw_chunk(model, design, proposal_factory, rng, levels, lv, counts, m0) -> _Draw:
    """The draws of one chunk from its stream ``rng``, which has drawn
    ``levels``, whose level groups are ``lv`` and ``counts`` (``_plan``):
    the outer samples sorted by level, one proposal fit on their fit rows
    and one inner draw (module docstring)."""
    theta = model.sample_prior(rng, levels.size)
    eps = model.sample_noise(rng, levels.size)
    y = model.simulate(design, theta, eps)
    k = 1 << (lv - lv[0])                         # fit rows of a sample, per group
    rows = [a.repeat(k.repeat(counts), axis=0) for a in (theta, eps, y)]
    fitted = proposal_factory.fit(model, design, *rows)
    inner, corr = fitted.sample_inner(rng, int(m0 * 2 ** lv[0]))
    return _Draw(levels, theta, eps, rows[0], rows[1], inner, corr, fitted.n_fallback)


def _plan(bins, m0, t):
    """The batches of the chunks whose levels are counted in ``bins``, one
    ``np.bincount`` per chunk, planned before any draw.

    A batch is ``(chunks, blocks)``.  ``chunks`` holds ``(i, lv, counts,
    m)`` of each of its chunks: the chunk's index and its level groups, each
    distinct level, increasing, its number of samples and their inner
    samples.  The chunks are a run of consecutive indices that share the
    fit-row width ``m0 * 2**l_min`` and hold at most ``_BLOCK_ENTRIES``
    likelihood entries together, or one chunk with more.  A block is
    ``(samples, rows, counts, m, split)``: slices of the batch's samples
    and of their fit rows, in group order, and the group arguments of
    ``_reduce``.  A batch within the budget is one block over all its
    groups; one over it is cut within its level groups into blocks of whole
    samples, each within the budget, or one sample.
    """
    runs, width = [], 0                           # [entries, chunks] of each batch
    for i, b in enumerate(bins):
        lv = b.nonzero()[0]
        counts = b[lv]
        m = m0 << lv
        entries = int(counts @ m) * t
        if runs and m[0] == width and runs[-1][0] + entries <= _BLOCK_ENTRIES:
            runs[-1][0] += entries
            runs[-1][1].append((i, lv, counts, m))
        else:
            runs.append([entries, [(i, lv, counts, m)]])
            width = m[0]
    plan = []
    for entries, chunks in runs:
        _, lv, counts, m = (chunks[0] if len(chunks) == 1
                            else (None, *map(np.concatenate, list(zip(*chunks))[1:])))
        split = lv.astype(bool)                   # only level 0 is unsplit
        blocks, a, r = [], 0, 0
        if entries <= _BLOCK_ENTRIES:             # one block over all groups
            blocks.append((slice(None), slice(None), counts, m, split))
        else:                                     # one chunk, cut within its groups
            for g, (c, mg) in enumerate(zip(counts.tolist(), m.tolist())):
                step, k = max(1, _BLOCK_ENTRIES // (mg * t)), mg // int(m[0])
                for s in range(a, a + c, step):
                    n = min(step, a + c - s)
                    blocks.append((slice(s, s + n), slice(r, r + n * k), [n], m[g : g + 1],
                                   split[g : g + 1]))
                    r += n * k
                a += c
        plan.append((chunks, blocks))
    return plan


def _batch_variables(model, design, draws, blocks, *, scored=True, antithetic=True):
    """``(delta, psi, n_fallback)`` of each drawn chunk of one batch, each in
    the drawn order of the chunk's levels.

    A level-``l`` sample has ``m0 * 2**l`` inner samples; ``delta`` is its
    correction variable (psi itself at level 0), and ``psi`` its fine-level
    psi variable.  The batch's chunks share their fit-row width; one self
    call, and one likelihood call and reduction per block of the plan
    (``_plan``), serve them all (module docstring).  Without ``scored`` the
    scores are dropped and the variables are log mean likelihoods.
    """
    theta, eps, theta_rows, eps_rows, inner, corr = (
        _JOINED(draws[0]) if len(draws) == 1
        else map(np.concatenate, zip(*map(_JOINED, draws))))
    self_w, self_s = model.loglik_score(design, theta, eps, theta[:, None, :])
    self_term = self_s.reshape(theta.shape[0], -1) if scored else self_w.reshape(-1)
    delta, psi = np.empty_like(self_term), np.empty_like(self_term)
    for i, f, counts, m, split in blocks:
        log_rho, scores = model.loglik_score(design, theta_rows[f], eps_rows[f], inner[f])
        log_w = log_rho.reshape(-1)
        log_w += corr[f].reshape(-1)              # the importance correction, in place
        scores = scores.reshape(log_w.size, -1) if scored else None
        delta[i], psi[i] = _reduce(log_w, scores, self_term[i], counts, m, split, antithetic)
    out, a = [], 0
    for d in draws:
        b = a + d.levels.size
        # Back from level order to the order of ``levels`` (a stable sort of
        # one-byte keys, levels being at most ``MAX_LEVEL``).
        order = np.argsort(d.levels.astype(np.uint8), kind="stable")
        delta_back, psi_back = np.empty_like(delta[a:b]), np.empty_like(psi[a:b])
        delta_back[order], psi_back[order] = delta[a:b], psi[a:b]
        out.append((delta_back, psi_back, d.n_fallback))
        a = b
    return out


def _run_chunks(
    n_outer, seed, phase, base_index, threads, *, model, design, proposal_factory, m0,
    draw_levels, terms, scored=True, antithetic=True, chunk=CHUNK_SIZE,
):
    """Termwise sums of ``terms(levels, bins, delta, psi, n_fallback)`` over
    the chunks of ``n_outer`` outer samples, in chunk order; ``bins`` is
    ``np.bincount(levels)``, counted once per chunk.

    Chunk ``i`` draws from sub-stream ``(seed, phase, base_index + i)``:
    first its levels, ``draw_levels(rng, n)``, then the rest of its draws
    (``_draw_chunk``).  Every chunk draws its levels first, which plan the
    batches and their blocks (``_plan``); each batch then draws its chunks
    and evaluates them at once (``_batch_variables``).  Neither the batches nor ``threads``, the number
    of batches run at once, change a draw, so the sums depend on neither.
    """
    sizes = chunk_sizes(n_outer, chunk)
    rngs = [stream(seed, phase, base_index + i) for i in range(len(sizes))]
    levels = [draw_levels(rng, n) for rng, n in zip(rngs, sizes)]
    bins = [np.bincount(lv) for lv in levels]

    def work(batch):
        chunks, blocks = batch
        draws = [_draw_chunk(model, design, proposal_factory, rngs[i], levels[i], lv, counts, m0)
                 for i, lv, counts, _ in chunks]
        variables = _batch_variables(model, design, draws, blocks, scored=scored,
                                     antithetic=antithetic)
        return [terms(levels[i], bins[i], *v) for (i, *_), v in zip(chunks, variables)]

    batches = _plan(bins, m0, model.t)
    if threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, batches))
    else:
        results = [work(b) for b in batches]
    return [sum(col) for col in zip(*(t for batch in results for t in batch))]


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

    def terms(levels, bins, var, _, n_fallback):
        # w_l and the inner cost once per level up to the chunk's highest.
        lv = np.arange(bins.size)
        w = weights.weight(lv)[levels]
        contrib = var / (w[:, None] if scored else w)
        sq_norm = (contrib**2).reshape(levels.size, -1).sum(axis=1)
        cost = int(weights.inner_samples(lv) @ bins)
        return contrib.sum(axis=0), sq_norm.sum(), cost, n_fallback

    return _run_chunks(
        n_outer, seed, phase, base_index, threads, model=model, design=design,
        proposal_factory=proposal_factory, m0=weights.m0, draw_levels=weights.sample_levels,
        terms=terms, scored=scored, antithetic=antithetic,
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
    grad_sum, sq_sum, total_cost, n_fallback = _debiased_sums(
        model, design, n_outer, weights, proposal_factory, seed, threads=threads,
        phase=phase, base_index=base_index, scored=True, antithetic=antithetic,
    )
    return GradientEstimate(
        grad=grad_sum / n_outer,
        n_outer=n_outer,
        total_cost=total_cost,
        per_sample_sq_norm_mean=sq_sum / n_outer,
        n_fallback=n_fallback,
    )
