"""Level-variance decay diagnostics.

Estimates the expected squared l2-norms of the fine-level psi variable and
of the multilevel correction variable at each level, and fits the decay
exponent beta_hat by least squares of log2 E||delta_psi_l||^2 on l over
levels 1 .. levels - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .gradient import _run_chunks
from .levels import LevelWeights
from .model import Design, ProblemModel
from .rng import PHASE_DECAY

# Inner samples one chunk of a decay level may hold: a level is cut into
# chunks of at most this many, and a level whose one outer sample needs more
# is refused before any draw.
CHUNK_INNER = 2**22

# Sub-streams of one decay level: chunk ``i`` of level ``l`` draws from
# stream index ``l * LEVEL_STREAMS + i``, so a level below the deepest may
# have at most this many chunks, or it would draw from the next level's.
LEVEL_STREAMS = 100_000


@dataclass(frozen=True)
class DecayRow:
    level: int
    mean_sq_psi: float     # E || psi_{M_l} ||_2^2
    mean_sq_delta: float   # E || delta_psi_l ||_2^2
    n_samples: int


@dataclass(frozen=True)
class DecayReport:
    rows: list[DecayRow]
    beta_hat: float
    fit_range: tuple[int, int]
    reliable: bool


def fit_beta(rows: list[DecayRow], fit_range: tuple[int, int]) -> float:
    """Least-squares slope of -log2 mean_sq_delta on the level.

    NaN when the range holds fewer than two levels or a mean square that is
    not positive (its logarithm does not exist).
    """
    lo, hi = fit_range
    pts = [(r.level, r.mean_sq_delta) for r in rows if lo <= r.level <= hi]
    ms = np.array([p[1] for p in pts], dtype=float)
    if len(pts) < 2 or not np.all(ms > 0):
        return float("nan")
    lv = np.array([p[0] for p in pts], dtype=float)
    slope = np.polyfit(lv, np.log2(ms), 1)[0]
    return float(-slope)


def check_study(levels: int, samples_per_level: int, m0: int):
    """Raise ``ContractViolationError`` unless a decay study of ``levels``
    levels, ``samples_per_level`` outer samples each and base inner sample
    size ``m0`` can run."""
    if levels < 2:
        raise ContractViolationError("decay study needs at least 2 levels")
    if samples_per_level < 1:
        raise ContractViolationError("decay study needs at least 1 sample per level")
    deepest = int(m0) * 2 ** (levels - 1)
    if deepest > CHUNK_INNER:
        raise ContractViolationError(
            f"decay level {levels - 1} needs {deepest} inner samples per outer sample, "
            f"more than the {CHUNK_INNER} of one chunk; lower levels or m0")
    # A level has at least as many chunks as the one below it, so the level
    # below the deepest has the most of any level that a next one follows.
    chunks = -(-samples_per_level // _chunk_cap(m0, levels - 2))
    if chunks > LEVEL_STREAMS:
        raise ContractViolationError(
            f"decay level {levels - 2} needs {chunks} chunks, more than the "
            f"{LEVEL_STREAMS} sub-streams of one level; lower samples per level or m0")


def _chunk_cap(m0: int, level: int) -> int:
    """Outer samples in one chunk of decay level ``level``."""
    return CHUNK_INNER // (int(m0) * 2**level)


def decay_study(
    model: ProblemModel,
    design: Design,
    levels: int,
    samples_per_level: int,
    weights: LevelWeights,
    proposal_factory,
    seed: int,
    *,
    antithetic: bool = True,
    threads: int = 1,
) -> DecayReport:
    """Empirical mean squares of psi_{M_l} and delta_psi_l for l = 0..levels-1.

    The rows do not depend on ``threads``; it sets how many batches of one
    level's chunks run at once.
    """
    check_study(levels, samples_per_level, weights.m0)

    def row(lvl):
        def terms(drawn, _, delta, psi, __):
            return float((delta**2).sum()), float((psi**2).sum()), drawn.size

        # Chunk the outer samples so high levels stay within memory.
        sq_delta, sq_psi, done = _run_chunks(
            samples_per_level, seed, PHASE_DECAY, lvl * LEVEL_STREAMS, threads, model=model,
            design=design, proposal_factory=proposal_factory, m0=weights.m0,
            draw_levels=lambda rng, n: np.full(n, lvl), terms=terms, antithetic=antithetic,
            chunk=_chunk_cap(weights.m0, lvl),
        )
        return DecayRow(lvl, sq_psi / done, sq_delta / done, done)

    rows = [row(lvl) for lvl in range(levels)]
    fit_range = (1, levels - 1)
    beta = fit_beta(rows, fit_range)
    return DecayReport(
        rows=rows,
        beta_hat=beta,
        fit_range=fit_range,
        reliable=samples_per_level >= 100,
    )
