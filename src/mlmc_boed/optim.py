"""Projected stochastic gradient ascent.

Maximization convention throughout: steps move *along* the estimated
gradient (textbook minimization formulations flip the sign).  Iterates are
kept feasible by Euclidean projection onto a box, which for a box is the
componentwise clamp.

:func:`optimize` is the one ascent loop.  It runs either Robbins-Monro with
the rate ``c / (t + 1)`` (``sum a_t = inf``, ``sum a_t^2 < inf``) and
optional Polyak-Ruppert averaging of the iterates, or AMSGrad without bias
correction, per the original formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError

EPS_STAB = 1e-8  # keeps the AMSGrad denominator away from zero


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or np.any(lower >= upper):
            raise ContractViolationError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def project(x: np.ndarray, box: BoxDomain) -> np.ndarray:
    """Euclidean projection onto the box (componentwise clamp); idempotent."""
    x = np.asarray(x, dtype=float)
    if x.shape != box.lower.shape:
        raise ContractViolationError("dimension mismatch in projection")
    return np.clip(x, box.lower, box.upper)


@dataclass(frozen=True)
class TraceRow:
    t: int
    design: np.ndarray
    polyak: np.ndarray
    cost_cumulative: int
    grad_norm: float


def optimize(
    x0: np.ndarray,
    box: BoxDomain,
    gradient_fn: Callable[[int, np.ndarray], tuple[np.ndarray, int]],
    max_iters: int,
    *,
    optimizer: str = "rm",
    rm_c: float = 5.0,
    amsgrad_alpha: float = 0.004,
    amsgrad_beta1: float = 0.9,
    amsgrad_beta2: float = 0.999,
    polyak: bool = True,
    on_iteration: Callable[[TraceRow], None] | None = None,
) -> list[TraceRow]:
    """Run projected stochastic gradient ascent for ``max_iters`` steps.

    ``gradient_fn(t, design_values)`` returns ``(grad_estimate, realized_cost)``.
    The trace records both the raw iterate and the Polyak-Ruppert average
    (identical to the raw iterate when averaging is off).
    """
    x = project(np.asarray(x0, dtype=float), box)
    if optimizer not in ("rm", "amsgrad"):
        raise ContractViolationError(f"unknown optimizer {optimizer!r}")
    averaging = polyak and optimizer == "rm"
    x_sum = np.zeros_like(x)
    m, v, v_hat = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)

    trace = [TraceRow(0, x.copy(), x.copy(), 0, float("nan"))]
    if on_iteration is not None:
        on_iteration(trace[0])
    cost = 0
    for t in range(max_iters):
        grad, realized = gradient_fn(t, x)
        if optimizer == "rm":
            x = project(x + rm_c / (t + 1) * np.asarray(grad), box)
            x_sum = x_sum + x
        else:
            g = np.asarray(grad, dtype=float)
            m = amsgrad_beta1 * m + (1 - amsgrad_beta1) * g
            v = amsgrad_beta2 * v + (1 - amsgrad_beta2) * g**2
            v_hat = np.maximum(v_hat, v)
            x = project(x + amsgrad_alpha * m / (np.sqrt(v_hat) + EPS_STAB), box)
        cost += realized
        row = TraceRow(
            t + 1,
            x.copy(),
            x_sum / (t + 1) if averaging else x.copy(),
            cost,
            float(np.linalg.norm(grad)),
        )
        trace.append(row)
        if on_iteration is not None:
            on_iteration(row)
    return trace
