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
nothing), which are kept only as their counts, then all its outer samples
in level order, then makes one proposal fit and one inner draw.  The fit
takes a level-``l`` sample as ``2**(l - l_min)`` equal rows, ``l_min``
being the chunk's lowest level, and the draw gives each fit row ``m0 *
2**l_min`` inner samples, so that a sample's rows hold its ``m0 * 2**l``
inner samples, first half first.  Every per-sample array stays in level
order from the draw to the sums: the estimators average i.i.d. pairs of
level and outer sample, so the order in which a chunk's samples are added
up means nothing, and a chunk is described by its level counts alone.

A batch is the unit of evaluation, and one budget of ``_BLOCK_ENTRIES``
likelihood entries (fit rows times width times ``model.t``) bounds every
likelihood call but the self call.  The levels give each sample's inner
count before any draw, so they plan the batches (``_plan``): a batch is a
run of consecutive chunks of one estimate that share the fit-row width
``m0 * 2**l_min`` and hold at most the budget together, or one chunk with
more.  A batch within the budget is one block of all its fit rows; a wider
one is cut greedily into runs of whole samples, each within the budget (or
one sample), so that array passes stay near cache size.  Each batch draws
its chunks and evaluates them at once.  One likelihood call evaluates every
sample's self term, at its own latent value, in the ``(n, 1)`` shape.  Each
block makes one call on its fit rows as drawn, ``(rows, m0 * 2**l_min)``,
and one segmented reduction forms every half-batch sum under its own max
shift (inner averages are self-normalized, immune to underflow).  A
non-finite log-likelihood in any call stops the estimate, whatever the
model (``_loglik_score``).  Every value depends only on its own sample's
rows, so neither batch nor block boundaries change a bit, and each chunk's
sums are still taken over its own samples, in level order: its variables
are a slice of its batch's.

The reduction reads inner rows only, and builds its segment indices from
each sample's inner count and split flag alone.  A sample has one segment
per half of its inner rows, or one for its whole batch if it is not split
(level 0).  So the segment lengths are one repeat of the per-sample segment
sizes, the starts are their running sum, and each sample's first segment
is the running sum of its segment counts.

Importing this module changes the whole process: on glibc it has the
allocator keep 16 MiB of freed heap memory for reuse (``mallopt`` with
``M_TOP_PAD``, in ``_keep_freed_memory``).  By default glibc hands the
memory of an estimate's freed arrays back to the system, and the next
estimate faults the same pages in afresh: a step of the benchmark's PK
ascent (about 20 ms) took some 1,100 page faults and 2.4 ms of system time.
Other C libraries are left as they are.  No value changes either way.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalDomainError
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


def _reduce(log_w, scores, self_term, m, split, antithetic):
    """``(delta, psi)`` of every outer sample from flat rows of inner samples
    and each sample's self term.

    Sample ``j`` holds ``m[j]`` inner rows, in two halves if ``split[j]``,
    else as one whole batch.  The inner average is the score ratio, or
    without ``scores`` the log mean likelihood, and ``self_term`` the self
    score or self log-likelihood to match; ``delta`` is ``coarse - fine`` if
    split, else ``self - fine``.
    """
    # Segments in row order: each sample's two halves of m/2 rows, or its
    # whole batch if unsplit.  ``ia`` and ``ib`` index each sample's first
    # and second half (both its whole batch if unsplit).
    segs = 1 + split                              # segments of each sample
    lengths = (m >> split).repeat(segs)
    ia = segs.cumsum()
    ia -= segs
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
        fine = shift + np.log(den_f) - np.log(m)
    else:
        half = num / den[:, None]
        fine = (ca[:, None] * num[ia] + cb[:, None] * num[ib]) / den_f[:, None]
        split = split[:, None]
    coarse = 0.5 * (half[ia] + half[ib]) if antithetic else half[ia]
    psi = self_term - fine
    return np.where(split, coarse - fine, psi), psi


# Likelihood entries (fit rows times width times ``model.t``) that one
# likelihood call may hold: narrow chunks of one estimate join into a batch
# up to this size, and a wider batch is cut into runs of whole samples
# within it, so that array passes stay near the size of a core's cache.
# 2**16 entries join the four chunks of a test-case or PK step and cut a
# test-case `decay` level of 500 samples from level 7 on.
_BLOCK_ENTRIES = 2**16

# glibc's mallopt(3) parameter M_TOP_PAD, and the free memory it keeps at
# the top of the heap, past what is in use: the arrays of the next batch are
# served from pages already mapped.  A PK or test-case step of 2,000 outer
# samples peaks at about 6 or 1 MB of arrays.
_M_TOP_PAD = -2
_TOP_PAD = 16 << 20


def _keep_freed_memory():
    """Have glibc keep ``_TOP_PAD`` bytes of freed heap memory for reuse; on
    any other C library, do nothing."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):   # no confstr, or no such name
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TOP_PAD, _TOP_PAD)


_keep_freed_memory()

# Float64 values that one array can hold, numpy indexing at most
# ``np.iinfo(np.intp).max`` bytes.
_MAX_VALUES = np.iinfo(np.intp).max // 8


class _Draw(NamedTuple):
    """Every draw of one chunk: ``theta`` and ``eps`` are the outer samples
    in level order, ``theta_rows`` and ``eps_rows`` their fit rows, and
    ``inner`` and ``corr`` the inner draw and its importance correction."""

    theta: np.ndarray
    eps: np.ndarray
    theta_rows: np.ndarray
    eps_rows: np.ndarray
    inner: np.ndarray
    corr: np.ndarray
    n_fallback: int


# The fields of its chunks' draws that a batch joins, taken by name.
_JOINED = attrgetter("theta", "eps", "theta_rows", "eps_rows", "inner", "corr")


def _draw_chunk(model, design, proposal_factory, rng, m) -> _Draw:
    """The draws of one chunk from its stream ``rng``, which has drawn the
    chunk's levels, whose samples have ``m`` inner samples each in level
    order (``_plan``): the outer samples, one proposal fit on their fit rows
    and one inner draw (module docstring)."""
    theta = model.sample_prior(rng, m.size)
    eps = model.sample_noise(rng, m.size)
    y = model.simulate(design, theta, eps)
    rows = [a.repeat(m // m[0], axis=0) for a in (theta, eps, y)]
    fitted = proposal_factory.fit(model, design, *rows)
    inner, corr = fitted.sample_inner(rng, int(m[0]))
    return _Draw(theta, eps, rows[0], rows[1], inner, corr, fitted.n_fallback)


def _plan(bins, m0, model):
    """The batches of the chunks whose levels are counted in ``bins``, one
    ``np.bincount`` per chunk, planned before any draw.

    A batch is a list of ``(i, m)``, one per chunk: the chunk's index and
    the inner samples of each of its samples, in level order.  The chunks
    are a run of consecutive indices that share the fit-row width ``m[0] =
    m0 * 2**l_min`` and hold at most ``_BLOCK_ENTRIES`` likelihood entries
    together, or one chunk with more.  A chunk whose inner draw, ``m.sum() *
    model.s`` values, no array can hold raises ``NumericalDomainError``.
    """
    plan, width, entries = [], 0, 0
    for i, b in enumerate(bins):
        # Counted in Python ints, so that no int64 wraps before the check.
        inner = m0 * sum(c << l for l, c in enumerate(b.tolist()))
        if inner * model.s > _MAX_VALUES:
            raise NumericalDomainError(
                f"a chunk's inner draw of {inner} samples of {model.s} values each is "
                f"more than one array can hold")
        m = (m0 << np.arange(b.size)).repeat(b)
        n = inner * model.t
        if plan and m[0] == width and entries + n <= _BLOCK_ENTRIES:
            entries += n
            plan[-1].append((i, m))
        else:
            plan.append([(i, m)])
            width, entries = m[0], n
    return plan


def _loglik_score(model, design, theta, eps, theta_inner):
    """``model.loglik_score``, refusing a non-finite log-likelihood: the
    estimators are unbiased, with finite variance, only while every
    per-sample variable is a finite number."""
    log_rho, score = model.loglik_score(design, theta, eps, theta_inner)
    if not np.isfinite(log_rho).all():
        raise NumericalDomainError("non-finite log-likelihood")
    return log_rho, score


def _batch_variables(model, design, draws, m, split, *, scored=True, antithetic=True):
    """``(delta, psi, n_fallback)`` of each drawn chunk of one batch, each in
    the chunk's level order: slices of the batch's arrays.

    ``m`` and ``split`` give each of the batch's samples, in level order
    per chunk, its inner samples, ``m0 * 2**l`` at level ``l``, and whether
    it is split (``l > 0``); ``delta`` is its correction variable (psi
    itself at level 0), and ``psi`` its fine-level psi variable.  One self
    call serves the batch.  A batch within ``_BLOCK_ENTRIES`` is one block;
    one over it is cut greedily into runs of whole samples, each within the
    budget or a single sample.  Each block makes one likelihood call and one
    reduction (module docstring).  Without ``scored`` the scores are dropped
    and the variables are log mean likelihoods.
    """
    theta, eps, theta_rows, eps_rows, inner, corr = (
        _JOINED(draws[0]) if len(draws) == 1
        else map(np.concatenate, zip(*map(_JOINED, draws))))
    self_w, self_s = _loglik_score(model, design, theta, eps, theta[:, None, :])
    self_term = self_s.reshape(theta.shape[0], -1) if scored else self_w.reshape(-1)
    delta, psi = np.empty_like(self_term), np.empty_like(self_term)
    blocks = [(slice(None), slice(None))]
    if int(m.sum()) * model.t > _BLOCK_ENTRIES:   # runs of whole samples
        ends = np.concatenate(([0], m.cumsum())) * model.t
        rows = np.concatenate(([0], (m // m[0]).cumsum()))
        blocks, a = [], 0
        while a < m.size:
            b = max(a + 1, int(ends.searchsorted(ends[a] + _BLOCK_ENTRIES, "right")) - 1)
            blocks.append((slice(a, b), slice(rows[a], rows[b])))
            a = b
    for i, f in blocks:
        log_rho, scores = _loglik_score(model, design, theta_rows[f], eps_rows[f], inner[f])
        log_w = log_rho.reshape(-1)
        log_w += corr[f].reshape(-1)              # the importance correction, in place
        scores = scores.reshape(log_w.size, -1) if scored else None
        delta[i], psi[i] = _reduce(log_w, scores, self_term[i], m[i], split[i], antithetic)
    out, a = [], 0
    for d in draws:
        b = a + d.theta.shape[0]
        out.append((delta[a:b], psi[a:b], d.n_fallback))
        a = b
    return out


def _run_chunks(
    n_outer, seed, phase, base_index, threads, *, model, design, proposal_factory, m0,
    draw_levels, terms, scored=True, antithetic=True, chunk=CHUNK_SIZE,
):
    """Termwise sums of ``terms(bins, delta, psi, n_fallback)`` over the
    chunks of ``n_outer`` outer samples, in chunk order; ``bins`` is the
    ``np.bincount`` of the chunk's levels, and ``delta`` and ``psi`` hold its
    samples in level order.

    Chunk ``i`` draws from sub-stream ``(seed, phase, base_index + i)``:
    first its levels, ``draw_levels(rng, n)``, which are kept only as their
    counts, then the rest of its draws (``_draw_chunk``).  Every chunk draws
    its levels first, which plan the batches (``_plan``); each batch then
    draws its chunks and evaluates them at once (``_batch_variables``).
    Neither the batches nor ``threads``, the number of batches run at once,
    change a draw, so the sums depend on neither.
    """
    sizes = chunk_sizes(n_outer, chunk)
    rngs = [stream(seed, phase, base_index + i) for i in range(len(sizes))]
    bins = [np.bincount(draw_levels(rng, n)) for rng, n in zip(rngs, sizes)]

    def work(batch):
        draws = [_draw_chunk(model, design, proposal_factory, rngs[i], m) for i, m in batch]
        m = batch[0][1] if len(batch) == 1 else np.concatenate([m for _, m in batch])
        variables = _batch_variables(model, design, draws, m, m > m0, scored=scored,
                                     antithetic=antithetic)
        return [terms(bins[i], *v) for (i, _), v in zip(batch, variables)]

    batches = _plan(bins, m0, model)
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

    def terms(bins, var, _, n_fallback):
        # w_l and the inner cost once per level up to the chunk's highest;
        # ``var`` is in level order.
        lv = np.arange(bins.size)
        w = weights.weight(lv).repeat(bins)
        contrib = var / (w[:, None] if scored else w)
        sq_norm = (contrib**2).reshape(w.size, -1).sum(axis=1)
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
