"""Estimators of the expected information gain (EIG) itself.

A randomized-level debiased estimator whose corrections are the
log-marginal-likelihood analogue of the antithetic gradient corrections:

    phi_0     = log rho_self - log rhobar_{M0}
    dphi_l    = (log rhobar_a + log rhobar_b) / 2 - log rhobar_fine   (l > 0)

reweighted by 1 / w_l, and the nested estimator with a fixed inner sample
size M (bias O(1/M)), which is the same estimator under a point mass at
level 0 with ``m0 = M``.  Both run on the estimator core of
:mod:`mlmc_boed.gradient`, with the likelihood's scores left out.  The closed
forms for the lognormal test case are also provided here for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

from .errors import ContractViolationError
from .gradient import _debiased_sums
from .levels import LevelWeights
from .model import Design, ProblemModel
from .rng import PHASE_EIG
from .testcase import TestCaseParams, gain_g, gain_h


@dataclass(frozen=True)
class EigEstimate:
    value: float        # nats
    std_error: float
    n_outer: int
    total_inner_cost: int
    n_fallback: int     # outer samples whose proposal fell back to the prior


def eig_nested(
    model: ProblemModel,
    design: Design,
    n_outer: int,
    m_inner: int,
    proposal_factory,
    seed: int,
    *,
    threads: int = 1,
    base_index: int = 0,
) -> EigEstimate:
    """Fixed-M nested estimator, mean of log rho_self - log rhobar_M: the
    debiased estimator under a point mass at level 0 with ``m0 = m_inner``."""
    if m_inner < 1:
        raise ContractViolationError("m_inner must be at least 1")
    return eig_unbiased_mlmc(
        model, design, n_outer, LevelWeights(m0=m_inner, w0_override=1.0),
        proposal_factory, seed, threads=threads, base_index=base_index,
    )


def eig_unbiased_mlmc(
    model: ProblemModel,
    design: Design,
    n_outer: int,
    weights: LevelWeights,
    proposal_factory,
    seed: int,
    *,
    threads: int = 1,
    base_index: int = 0,
) -> EigEstimate:
    """Randomized-level debiased EIG estimator with antithetic corrections."""
    total, total_sq, cost, n_fallback = _debiased_sums(
        model, design, n_outer, weights, proposal_factory, seed, threads=threads,
        phase=PHASE_EIG, base_index=base_index, scored=False,
    )
    mean = total / n_outer
    var = max(total_sq / n_outer - mean**2, 0.0)
    return EigEstimate(value=mean, std_error=sqrt(var / n_outer), n_outer=n_outer,
                       total_inner_cost=cost, n_fallback=n_fallback)


# ---------------------------------------------------------------------------
# closed forms for the lognormal test case


def testcase_eig_closed(xi: float, params: TestCaseParams | None = None) -> float:
    """Exact EIG of the test case: 0.5 log((g^2 r + 1)(h^2 r + 1)), r = s0^2/se^2."""
    p = params or TestCaseParams()
    r = p.sigma0**2 / p.sigma_eps**2
    g, _ = gain_g(xi)
    h, _ = gain_h(xi)
    return 0.5 * log((g**2 * r + 1.0) * (h**2 * r + 1.0))


def testcase_eig_upper(xi: float, params: TestCaseParams | None = None) -> float:
    """Jensen upper bound: g^2 r + h^2 r."""
    p = params or TestCaseParams()
    r = p.sigma0**2 / p.sigma_eps**2
    g, _ = gain_g(xi)
    h, _ = gain_h(xi)
    return g**2 * r + h**2 * r


def testcase_optimal_design() -> float:
    """Interior maximizer of the test-case EIG."""
    return sqrt(log(3.0))
