"""Tests of the randomized-level distribution and its cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_boed import ConfigurationError, LevelWeights


def test_weights_sum_to_one():
    w = LevelWeights(tau=1.5)
    levels = np.arange(200)
    assert w.weight(levels).sum() == pytest.approx(1.0, abs=1e-12)
    w2 = LevelWeights(tau=1.5, w0_override=0.9)
    assert w2.weight(levels).sum() == pytest.approx(1.0, abs=1e-12)


def test_level_zero_probability():
    w = LevelWeights(tau=1.5)
    assert w.weight(0) == pytest.approx(1.0 - 2.0 ** (-1.5))
    assert LevelWeights(tau=1.5, w0_override=0.9).weight(0) == 0.9


def test_weights_are_geometric_in_level():
    w = LevelWeights(tau=1.5)
    lv = np.arange(1, 10)
    ratios = w.weight(lv + 1) / w.weight(lv)
    assert np.allclose(ratios, 2.0 ** (-1.5))


def test_inner_samples_double_per_level():
    for m0 in (3, np.int64(3)):
        w = LevelWeights(m0=m0, tau=1.5)
        assert list(w.inner_samples(np.arange(4))) == [3, 6, 12, 24]


def test_expected_cost_closed_forms():
    assert LevelWeights(m0=1, tau=1.5).expected_cost() == pytest.approx(2.21, abs=5e-3)
    assert LevelWeights(
        m0=1, tau=1.5, w0_override=0.9
    ).expected_cost() == pytest.approx(1.34, abs=5e-3)


def test_expected_cost_matches_direct_sum():
    for w in (LevelWeights(tau=1.7, m0=2), LevelWeights(tau=1.5, w0_override=0.5)):
        lv = np.arange(300)
        direct = float((w.weight(lv) * w.m0 * 2.0**lv).sum())
        assert w.expected_cost() == pytest.approx(direct, rel=1e-12)


def test_sampled_frequencies_match_weights():
    w = LevelWeights(tau=1.5, w0_override=0.9)
    rng = np.random.default_rng(0)
    n = 1_000_000
    levels = w.sample_levels(rng, n)
    for lvl in range(5):
        p = float(w.weight(lvl))
        freq = (levels == lvl).mean()
        # 4-sigma binomial band
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)


def test_sampling_realizes_expected_cost():
    w = LevelWeights(tau=1.5)
    rng = np.random.default_rng(1)
    levels = w.sample_levels(rng, 500_000)
    mean_cost = w.inner_samples(levels).mean()
    assert mean_cost == pytest.approx(w.expected_cost(), rel=0.02)


def test_degenerate_override_always_level_zero():
    w = LevelWeights(tau=1.5, w0_override=1.0)
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    assert np.all(w.sample_levels(rng, 10_000) == 0)
    # A point mass draws nothing: the fixed-M estimators' streams stay intact.
    assert rng.bit_generator.state == state
    assert w.expected_cost() == pytest.approx(1.0)


def test_invalid_parameters_rejected():
    for kwargs in (
        {"tau": 1.0}, {"tau": 0.5}, {"m0": 0}, {"m0": 1.5}, {"m0": 2.0}, {"m0": True},
        {"m0": "2"}, {"w0_override": 0.0}, {"w0_override": 1.5}, {"tau": float("nan")},
    ):
        with pytest.raises(ConfigurationError):
            LevelWeights(**kwargs)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.floats(1.05, 4.0), st.one_of(st.none(), st.floats(0.05, 0.99)))
def test_sampled_frequencies_match_weights_for_any_parameters(tau, w0):
    w = LevelWeights(tau=tau, w0_override=w0)
    n = 20_000
    levels = w.sample_levels(np.random.default_rng(17), n)
    for lvl in range(4):
        p = float(w.weight(lvl))
        # 5-sigma binomial band
        assert abs((levels == lvl).mean() - p) <= 5 * np.sqrt(p * (1 - p) / n) + 1e-12
