"""The flat estimators against the per-level loop, sample for sample.

Both consume the same random draws in the same order, so they must agree to
rounding: costs and sample counts exactly, every floating-point output
within ``RTOL``.  The flat core sums half batches under their own shifts and
rescales them into the fine sums, where the loop shifts each full batch once;
that reorders a few roundings and nothing else.
"""

import numpy as np
import pytest

import loop_reference as ref
from mlmc_boed import (
    Design,
    LaplaceProposalFactory,
    LevelWeights,
    PkProblem,
    PriorProposalFactory,
    TestCaseProblem,
    decay_study,
    default_config,
    eig_nested,
    eig_unbiased_mlmc,
    unbiased_gradient,
)
from mlmc_boed.proposals import FittedGaussian

RTOL = 1e-12


class ForcedFallbackFactory:
    """Laplace proposals with every third outer sample forced onto the prior.

    The estimators pass an outer sample to the fit as a run of equal rows,
    and the fit's arrays hold one entry per run, so the mask forces whole
    outer samples, not single rows of one.
    """

    name = "laplace-forced-fallback"

    def __init__(self):
        self.n_fallback = 0  # summed over every fit, to check the estimates' count

    def fit(self, model, design, theta, eps, y):
        fitted = LaplaceProposalFactory().fit(model, design, theta, eps, y)
        mask = fitted.fallback.copy()
        mask[::3] = True
        forced = FittedGaussian(model, fitted.means, fitted.chols, mask, fitted.runs)
        self.n_fallback += forced.n_fallback
        return forced


def _case(name, m0=1):
    if name == "testcase":
        return (TestCaseProblem(), Design(np.array([1.5])),
                LevelWeights(m0=m0, tau=1.5), PriorProposalFactory())
    pk = PkProblem()
    factory = ForcedFallbackFactory() if name == "pk-fallback" else LaplaceProposalFactory()
    return (pk, Design(default_config("pk").xi0),
            LevelWeights(m0=m0, tau=1.5, w0_override=0.9), factory)


GRADIENT_CASES = [
    ("testcase", True, 1, 1300),
    ("testcase", False, 1, 1300),
    ("testcase", True, 2, 700),
    ("testcase", False, 2, 700),
    ("pk", True, 1, 600),
    ("pk", False, 2, 600),
    ("pk-fallback", True, 1, 600),
]


@pytest.mark.parametrize("name,antithetic,m0,n_outer", GRADIENT_CASES)
def test_unbiased_gradient_matches_loop(name, antithetic, m0, n_outer):
    model, design, w, factory = _case(name, m0)
    est = unbiased_gradient(model, design, n_outer, w, factory, 31, threads=2,
                            antithetic=antithetic)
    grad, sq, cost, n_fb = ref.unbiased_gradient(model, design, n_outer, w, factory, 31,
                                                 antithetic=antithetic)
    assert est.total_cost == cost
    assert est.n_fallback == n_fb
    np.testing.assert_allclose(est.grad, grad, rtol=RTOL, atol=0)
    np.testing.assert_allclose(est.per_sample_sq_norm_mean, sq, rtol=RTOL, atol=0)


@pytest.mark.parametrize("name,m_inner,n_outer", [
    ("testcase", 1, 1300), ("testcase", 4, 700), ("pk", 2, 600), ("pk-fallback", 2, 600),
])
def test_standard_gradient_matches_loop(name, m_inner, n_outer):
    model, design, _, factory = _case(name)
    est = unbiased_gradient(model, design, n_outer, LevelWeights(m0=m_inner, w0_override=1.0),
                            factory, 32)
    grad, sq, cost, n_fb = ref.standard_gradient(model, design, n_outer, m_inner, factory, 32)
    assert est.total_cost == cost
    assert est.n_fallback == n_fb
    np.testing.assert_allclose(est.grad, grad, rtol=RTOL, atol=0)
    np.testing.assert_allclose(est.per_sample_sq_norm_mean, sq, rtol=RTOL, atol=0)


@pytest.mark.parametrize("name,m0,n_outer", [
    ("testcase", 1, 1300), ("testcase", 2, 700), ("pk", 1, 600), ("pk-fallback", 2, 600),
])
def test_eig_estimators_match_loop(name, m0, n_outer):
    model, design, w, factory = _case(name, m0)
    for est, (value, se, cost, n_fb) in (
        (eig_unbiased_mlmc(model, design, n_outer, w, factory, 33, threads=2),
         ref.eig_unbiased_mlmc(model, design, n_outer, w, factory, 33)),
        (eig_nested(model, design, n_outer, 8, factory, 34),
         ref.eig_nested(model, design, n_outer, 8, factory, 34)),
    ):
        assert est.total_inner_cost == cost
        assert est.n_fallback == n_fb
        np.testing.assert_allclose([est.value, est.std_error], [value, se], rtol=RTOL, atol=0)


@pytest.mark.parametrize("name,antithetic,m0,levels,n", [
    ("testcase", True, 1, 6, 700),
    ("testcase", False, 2, 5, 300),
    ("pk", True, 1, 4, 100),
    ("pk-fallback", False, 1, 3, 100),
])
def test_decay_study_matches_loop(name, antithetic, m0, levels, n):
    model, design, w, factory = _case(name, m0)
    rep = decay_study(model, design, levels, n, w, factory, 35, antithetic=antithetic)
    rows = ref.decay_rows(model, design, levels, n, w, factory, 35, antithetic=antithetic)
    assert [(r.level, r.n_samples) for r in rep.rows] == [(r[0], r[3]) for r in rows]
    np.testing.assert_allclose(
        [(r.mean_sq_psi, r.mean_sq_delta) for r in rep.rows],
        [(r[1], r[2]) for r in rows], rtol=RTOL, atol=0,
    )


def test_fallback_count_is_reported():
    model, design, w, factory = _case("pk-fallback")
    est = unbiased_gradient(model, design, 600, w, factory, 36)
    eig = eig_nested(model, design, 100, 4, factory, 37)
    # Each fit of k outer samples forces ceil(k / 3) of them, so at least a
    # third of the 700 samples fall back.
    assert est.n_fallback + eig.n_fallback == factory.n_fallback >= 700 // 3
    # One fit per chunk: 512 + 88 gradient samples and 100 EIG samples, of
    # which exactly every third falls back, row repeats notwithstanding.
    assert (est.n_fallback, eig.n_fallback) == (171 + 30, 34)
    assert unbiased_gradient(model, design, 600, w, LaplaceProposalFactory(), 36).n_fallback == 0
    assert eig_nested(TestCaseProblem(), Design(np.array([1.5])), 100, 4,
                      PriorProposalFactory(), 37).n_fallback == 0
