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

A batch is the unit of evaluation: a run of consecutive chunks of one
estimate that share the fit-row width ``m0 * 2**l_min`` and hold at most
``_BATCH_ENTRIES`` likelihood entries (fit rows times width times
``model.t``) together, or one chunk with more.  The levels plan the
batches; each batch then draws its chunks and evaluates them at once.  One
likelihood call evaluates every sample's self term, at its own latent
value, in the ``(n, 1)`` shape.  Every other call sees the fit rows as
drawn, ``(rows, m0 * 2**l_min)``: all of them if the batch holds at most
``_BLOCK_ENTRIES`` entries, else blocks, cuts within its level groups, each
the fit rows of whole samples with at most that many entries (or of one
sample), so that its array passes stay near cache size.  Each block makes
one likelihood call, and one segmented reduction forms every half-batch sum
under its own max shift (inner averages are self-normalized, immune to
underflow).  Every value depends only on its own sample's rows, so neither
batch nor block boundaries change a bit, and each chunk's sums are still
taken over its own samples, in its drawn order.

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


# Likelihood entries (rows times ``model.t``) that narrow chunks of one
# estimate may hold together in a batch; a wider chunk is a batch of its
# own.  2**14 entries join the chunks of a test-case step, and keep apart
# PK chunks, whose likelihood gets slower per row past this size.
_BATCH_ENTRIES = 2**14

# Likelihood entries a block of whole outer samples may hold; a wider
# sample is a block of its own.  2**17 entries (2**16 test-case rows) keep
# a block's arrays near the size of a core's cache.
_BLOCK_ENTRIES = 2**17


class _Draw(NamedTuple):
    """Every draw of one chunk.  ``levels`` is in drawn order, and ``lv``
    and ``counts`` are its level groups: each distinct level, increasing,
    and its number of samples.  ``theta`` and ``eps`` are the outer samples
    in level order, ``theta_rows`` and ``eps_rows`` their fit rows, and
    ``inner`` and ``corr`` the inner draw and its importance correction."""

    levels: np.ndarray
    lv: np.ndarray
    counts: np.ndarray
    theta: np.ndarray
    eps: np.ndarray
    theta_rows: np.ndarray
    eps_rows: np.ndarray
    inner: np.ndarray
    corr: np.ndarray
    n_fallback: int


# The fields of its chunks' draws that a batch joins, taken by name.
_JOINED = attrgetter("lv", "counts", "theta", "eps", "theta_rows", "eps_rows", "inner", "corr")


def _draw_chunk(model, design, proposal_factory, rng, levels, bins, m0) -> _Draw:
    """The draws of one chunk from its stream ``rng``, which has drawn
    ``levels``, counted in ``bins`` (``np.bincount(levels)``): the outer
    samples sorted by level, one proposal fit on their fit rows and one
    inner draw (module docstring)."""
    lv = np.flatnonzero(bins)
    counts = bins[lv]
    theta = model.sample_prior(rng, levels.size)
    eps = model.sample_noise(rng, levels.size)
    y = model.simulate(design, theta, eps)
    k = 2 ** (lv - lv[0])                         # fit rows of a sample, per group
    rows = [a.repeat(k.repeat(counts), axis=0) for a in (theta, eps, y)]
    fitted = proposal_factory.fit(model, design, *rows)
    inner, corr = fitted.sample_inner(rng, int(m0 * 2 ** lv[0]))
    return _Draw(levels, lv, counts, theta, eps, rows[0], rows[1], inner, corr,
                 fitted.n_fallback)


def _batches(bins, m0, t):
    """The batches of chunks whose levels are counted in ``bins``, one
    ``np.bincount`` per chunk: runs of consecutive chunk indices that share
    the fit-row width ``m0 * 2**l_min`` and hold at most ``_BATCH_ENTRIES``
    likelihood entries together.  A chunk with more is a batch of its own."""
    if len(bins) == 1:                            # nothing to join
        yield [0]
        return
    batch, width, total = [], 0, 0
    for i, b in enumerate(bins):
        w = m0 << int(b.nonzero()[0][0])
        entries = m0 * t * int(b @ (1 << np.arange(b.size)))
        if batch and (w != width or total + entries > _BATCH_ENTRIES):
            yield batch
            batch, total = [], 0
        batch.append(i)
        width, total = w, total + entries
    yield batch


def _blocks(counts, k, entries):
    """Blocks of a batch's samples in group order, each within one level
    group and holding at most ``_BLOCK_ENTRIES`` likelihood entries, or one
    sample.  Group ``g`` holds ``counts[g]`` samples of ``k[g]`` fit rows
    and ``entries[g]`` entries each.  A block is ``(samples, rows, g)``:
    slices of its samples and of their fit rows, and its group.
    """
    a = r = 0
    for g, (c, kg, e) in enumerate(zip(counts.tolist(), k.tolist(), entries.tolist())):
        step = max(1, _BLOCK_ENTRIES // e)
        for b in range(a, a + c, step):
            n = min(step, a + c - b)
            yield slice(b, b + n), slice(r, r + n * kg), g
            r += n * kg
        a += c


def _batch_variables(model, design, draws, m0, *, scored=True, antithetic=True):
    """``(delta, psi, n_fallback)`` of each drawn chunk of one batch, each in
    the drawn order of the chunk's levels.

    A level-``l`` sample has ``m0 * 2**l`` inner samples; ``delta`` is its
    correction variable (psi itself at level 0), and ``psi`` its fine-level
    psi variable.  The batch's chunks share their fit-row width, and each
    brings its own level groups; one self call, and one likelihood call and
    reduction per block, serve them all (module docstring).  Without
    ``scored`` the scores are dropped and the variables are log mean
    likelihoods.
    """
    columns = [_JOINED(d) for d in draws]
    lv, counts, theta, eps, theta_rows, eps_rows, inner, corr = (
        columns[0] if len(draws) == 1 else map(np.concatenate, zip(*columns)))
    m = m0 * 2**lv
    split = lv > 0                                # only level 0 is unsplit
    self_w, self_s = model.loglik_score(design, theta, eps, theta[:, None, :])
    self_term = self_s.reshape(theta.shape[0], -1) if scored else self_w.reshape(-1)

    def block(theta, eps, inner, corr, self_term, counts, m, split):
        log_rho, scores = model.loglik_score(design, theta, eps, inner)
        log_w = log_rho.reshape(-1)
        log_w += corr.reshape(-1)             # the importance correction, in place
        scores = scores.reshape(log_w.size, -1) if scored else None
        return _reduce(log_w, scores, self_term, counts, m, split, antithetic)

    if inner.size // model.s * model.t <= _BLOCK_ENTRIES:      # one block
        delta, psi = block(theta_rows, eps_rows, inner, corr, self_term, counts, m, split)
    else:
        parts = [
            block(theta_rows[f], eps_rows[f], inner[f], corr[f], self_term[i],
                  [i.stop - i.start], m[g : g + 1], split[g : g + 1])
            for i, f, g in _blocks(counts, m // inner.shape[1], m * model.t)
        ]
        delta, psi = (np.concatenate(p) for p in zip(*parts))
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
    batches; each batch then draws its chunks and evaluates them at once
    (``_batch_variables``).  Neither the batches nor ``threads``, the number
    of batches run at once, change a draw, so the sums depend on neither.
    """
    sizes = chunk_sizes(n_outer, chunk)
    rngs = [stream(seed, phase, base_index + i) for i in range(len(sizes))]
    levels = [draw_levels(rng, n) for rng, n in zip(rngs, sizes)]
    bins = [np.bincount(lv) for lv in levels]

    def work(batch):
        draws = [_draw_chunk(model, design, proposal_factory, rngs[i], levels[i], bins[i], m0)
                 for i in batch]
        variables = _batch_variables(model, design, draws, m0, scored=scored,
                                     antithetic=antithetic)
        return [terms(levels[i], bins[i], *v) for i, v in zip(batch, variables)]

    batches = list(_batches(bins, m0, model.t))
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
