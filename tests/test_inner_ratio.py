"""Tests of the self-normalized inner average."""

import numpy as np
import pytest
from scipy.special import logsumexp

from mlmc_boed.gradient import _segment_sums


def inner_ratio(log_weights, scores):
    """``(log_rho_bar, ratio)`` of one inner batch, as one segment."""
    log_w = np.asarray(log_weights, dtype=float)
    scores = np.asarray(scores, dtype=float)
    top, den, num = _segment_sums(log_w, scores, np.zeros(1, dtype=np.intp))
    return top[0] + np.log(den[0]) - np.log(log_w.size), num[0] / den[0]


def test_single_sample_identity():
    log_rho_bar, ratio = inner_ratio(np.array([-3.7]), np.array([[2.5, -1.0]]))
    assert log_rho_bar == pytest.approx(-3.7)
    assert np.allclose(ratio, [2.5, -1.0])


def test_uniform_weights_reduce_to_plain_mean():
    scores = np.arange(12.0).reshape(4, 3)
    log_rho_bar, ratio = inner_ratio(np.full(4, -1.3), scores)
    assert np.allclose(ratio, scores.mean(axis=0))
    assert log_rho_bar == pytest.approx(-1.3)


def test_extreme_weight_saturates_to_argmax_score():
    _, ratio = inner_ratio(np.array([0.0, -1000.0]), np.array([[5.0], [-5.0]]))
    assert ratio[0] == pytest.approx(5.0, abs=1e-12)


def test_matches_naive_linear_space_computation():
    rng = np.random.default_rng(0)
    log_w = rng.normal(size=16)
    scores = rng.normal(size=(16, 2))
    log_rho_bar, ratio = inner_ratio(log_w, scores)
    w = np.exp(log_w)
    assert np.allclose(ratio, (w[:, None] * scores).sum(0) / w.sum())
    assert log_rho_bar == pytest.approx(logsumexp(log_w) - np.log(16))


def test_no_underflow_for_very_negative_weights():
    rng = np.random.default_rng(1)
    log_w = rng.normal(size=8) - 50_000.0
    scores = rng.normal(size=(8, 1))
    log_rho_bar, ratio = inner_ratio(log_w, scores)
    assert np.isfinite(ratio).all()
    assert log_rho_bar < -49_000


def test_ratio_is_convex_combination_of_scores():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=(32, 1))
    _, ratio = inner_ratio(rng.normal(size=32), scores)
    assert scores.min() <= ratio[0] <= scores.max()
