"""Tests of the EIG estimators against the closed forms of the lognormal problem."""

import numpy as np
import pytest

from mlmc_boed import (
    Design,
    LevelWeights,
    PriorProposalFactory,
    TestCaseProblem,
    eig_nested,
    eig_unbiased_mlmc,
    testcase_eig_closed,
    testcase_optimal_design,
)
from mlmc_boed.eig import testcase_eig_upper


@pytest.fixture
def model():
    return TestCaseProblem()


@pytest.fixture
def factory():
    return PriorProposalFactory()


def test_closed_form_difference_near_optimum():
    gap = testcase_eig_closed(testcase_optimal_design()) - testcase_eig_closed(1.5)
    assert gap == pytest.approx(0.0148, abs=2e-4)


def test_jensen_gap(model):
    for xi in [0.3, 1.0, 1.5, 2.5]:
        assert testcase_eig_upper(xi) > testcase_eig_closed(xi)


def test_nested_estimator_matches_closed_form(model, factory):
    design = Design(np.array([1.5]))
    est = eig_nested(model, design, 40_000, 256, factory, seed=0)
    # residual 1/M bias is well below the MC band at M = 256
    assert est.value == pytest.approx(testcase_eig_closed(1.5), abs=4 * est.std_error + 0.01)
    assert est.total_inner_cost == 40_000 * 256


def test_nested_bias_shrinks_like_one_over_m(model, factory):
    design = Design(np.array([1.5]))
    truth = testcase_eig_closed(1.5)
    biases = []
    ms = [4, 16, 64]
    for m in ms:
        est = eig_nested(model, design, 200_000, m, factory, seed=42)
        biases.append(est.value - truth)
    # positive bias, decreasing roughly geometrically with M
    assert all(b > 0 for b in biases)
    slope = np.polyfit(np.log(ms), np.log(biases), 1)[0]
    assert -1.3 < slope < -0.7


def test_unbiased_estimator_matches_closed_form(model, factory):
    design = Design(np.array([1.0482]))
    w = LevelWeights(tau=1.5)
    est = eig_unbiased_mlmc(model, design, 300_000, w, factory, seed=1, threads=4)
    assert est.value == pytest.approx(
        testcase_eig_closed(1.0482), abs=3.5 * est.std_error
    )


def test_estimators_agree_with_each_other(model, factory):
    design = Design(np.array([2.0]))
    w = LevelWeights(tau=1.5)
    a = eig_nested(model, design, 50_000, 128, factory, seed=2)
    b = eig_unbiased_mlmc(model, design, 200_000, w, factory, seed=3)
    band = 3 * np.hypot(a.std_error, b.std_error) + 0.01
    assert abs(a.value - b.value) < band


def test_deterministic_across_threads(model, factory):
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    a = eig_unbiased_mlmc(model, design, 4000, w, factory, seed=5, threads=1)
    b = eig_unbiased_mlmc(model, design, 4000, w, factory, seed=5, threads=8)
    assert a.value == b.value
    assert a.std_error == b.std_error
    assert a.total_inner_cost == b.total_inner_cost


def test_disjoint_substreams_for_shifted_base_index(model, factory):
    design = Design(np.array([1.5]))
    a = eig_nested(model, design, 1000, 8, factory, seed=6, base_index=0)
    b = eig_nested(model, design, 1000, 8, factory, seed=6, base_index=50)
    assert a.value != b.value


def test_large_design_limit(model, factory):
    # EIG approaches 0.5 log(5/2) as the design grows
    est = eig_nested(model, Design(np.array([40.0])), 20_000, 128, factory, seed=7)
    assert est.value == pytest.approx(0.5 * np.log(2.5), abs=0.02)
