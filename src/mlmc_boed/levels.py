"""Randomized-level distribution for the debiased multilevel estimator.

Level ``l`` uses ``m0 * 2**l`` inner samples and is drawn with probability
``w_l`` proportional to ``2**(-tau * l)``.  The expected cost per correction
sample is finite iff ``tau > 1``, which is enforced at construction.  An
explicit ``w0`` override (used by the PK experiments) pins the level-0 mass
and renormalizes the geometric tail to ``1 - w0``; ``w0 = 1`` is the point
mass at level 0 under which the fixed-M nested estimators run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Sampling is exact (closed-form inverse CDF, no truncation); levels beyond
# this are astronomically improbable for tau > 1 and indicate a broken RNG
# or weights, so we abort instead of silently hanging on 2**l inner samples.
MAX_LEVEL = 60


@dataclass(frozen=True)
class LevelWeights:
    m0: int = 1
    tau: float = 1.5
    w0_override: float | None = None

    def __post_init__(self):
        m0 = self.m0
        if isinstance(m0, bool) or not isinstance(m0, (int, np.integer)) or m0 < 1:
            raise ConfigurationError("m0 must be a positive integer")
        if not self.tau > 1.0:                 # NaN included
            raise ConfigurationError(
                "tau must exceed 1 for finite expected cost (w_l ~ 2^(-tau l))"
            )
        if self.w0_override is not None and not (0.0 < self.w0_override <= 1.0):
            raise ConfigurationError("w0 override must lie in (0, 1]")

    @property
    def ratio(self) -> float:
        return 2.0 ** (-self.tau)

    def weight(self, level) -> np.ndarray:
        """Probability mass w_l, vectorized over ``level``."""
        level = np.asarray(level)
        r = self.ratio
        if self.w0_override is None:
            return (1.0 - r) * r**level
        w0 = self.w0_override
        tail = (1.0 - w0) * (1.0 - r) * r ** (level - 1.0)
        return np.where(level == 0, w0, tail)

    def inner_samples(self, level) -> np.ndarray:
        return self.m0 * 2 ** np.asarray(level, dtype=np.int64)

    def expected_cost(self) -> float:
        """Closed form of ``m0 * sum_l 2^l w_l`` (inner evaluations per sample)."""
        r = self.ratio
        if self.w0_override is None:
            return self.m0 * (1.0 - r) / (1.0 - 2.0 * r)
        w0 = self.w0_override
        return self.m0 * (w0 + 2.0 * (1.0 - w0) * (1.0 - r) / (1.0 - 2.0 * r))

    def sample_levels(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. levels by closed-form inverse CDF; a point mass
        at level 0 (``w0_override == 1``) draws nothing from ``rng``."""
        if self.w0_override == 1.0:
            return np.zeros(n, dtype=np.int64)
        u = rng.random(n)
        log_r = np.log(self.ratio)
        if self.w0_override is None:
            levels = np.floor(np.log1p(-u) / log_r).astype(np.int64)
        else:
            w0 = self.w0_override
            levels = np.zeros(n, dtype=np.int64)
            tail = u >= w0
            if np.any(tail):
                v = (1.0 - u[tail]) / (1.0 - w0)  # uniform on (0, 1]
                levels[tail] = 1 + np.floor(np.log(v) / log_r).astype(np.int64)
        if np.any(levels > MAX_LEVEL):
            raise RuntimeError(f"sampled level beyond {MAX_LEVEL}; check weights")
        return levels

