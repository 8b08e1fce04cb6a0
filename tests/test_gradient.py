"""Tests of the gradient variables and the randomized-level estimator."""

import numpy as np
import pytest

from mlmc_boed import (
    ContractViolationError,
    Design,
    LevelWeights,
    PriorProposalFactory,
    ProblemModel,
    TestCaseProblem,
    correction_samples,
    standard_gradient,
    unbiased_gradient,
)
from mlmc_boed.gradient import delta_from_inner


class FlatLikelihoodModel(ProblemModel):
    """Likelihood independent of the inner latent value; the inner average
    then equals the self term exactly and every gradient variable is zero."""

    d = 1
    s = 1
    s_noise = 1
    t = 1

    def sample_prior(self, rng, n):
        return rng.standard_normal((n, 1))

    def sample_noise(self, rng, n):
        return rng.standard_normal((n, 1))

    def simulate(self, design, theta, eps):
        return eps.copy()

    def loglik_score(self, design, theta, eps, theta_inner):
        n, m = theta_inner.shape[:2]
        log_rho = np.broadcast_to(-0.5 * eps[:, :1] ** 2, (n, m)).copy()
        score = np.broadcast_to(eps[:, :1, None] * design.values, (n, m, 1)).copy()
        return log_rho, score


def test_flat_likelihood_gives_zero_gradient_variable():
    model = FlatLikelihoodModel()
    design = Design(np.array([2.0]))
    rng = np.random.default_rng(0)
    # Level 0 with m0 = 8 is the fixed-M nested variable with M = 8.
    psi = correction_samples(model, design, 0, LevelWeights(m0=8), PriorProposalFactory(), rng, 64)
    assert np.allclose(psi, 0.0, atol=1e-14)
    delta = correction_samples(
        model, design, 3, LevelWeights(tau=1.5), PriorProposalFactory(), rng, 16
    )
    assert np.allclose(delta, 0.0, atol=1e-14)


def test_identical_halves_cancel_exactly():
    rng = np.random.default_rng(1)
    half_w = rng.normal(size=(5, 4))
    half_s = rng.normal(size=(5, 4, 2))
    log_w = np.concatenate([half_w, half_w], axis=1)
    scores = np.concatenate([half_s, half_s], axis=1)
    delta = delta_from_inner(log_w, scores, level=3)
    assert np.allclose(delta, 0.0, atol=1e-13)


def test_antithetic_delta_matches_direct_formula():
    rng = np.random.default_rng(2)
    m = 16
    log_w = rng.normal(size=(6, m))
    scores = rng.normal(size=(6, m, 1))

    def ratio(lw, sc):
        w = np.exp(lw)
        return (w[..., None] * sc).sum(axis=1) / w.sum(axis=1)[:, None]

    direct = (
        0.5 * (ratio(log_w[:, : m // 2], scores[:, : m // 2])
               + ratio(log_w[:, m // 2 :], scores[:, m // 2 :]))
        - ratio(log_w, scores)
    )
    delta = delta_from_inner(log_w, scores, level=4)
    assert np.allclose(delta, direct, rtol=1e-12)


def test_naive_delta_uses_single_half():
    rng = np.random.default_rng(3)
    m = 8
    log_w = rng.normal(size=(4, m))
    scores = rng.normal(size=(4, m, 1))

    def ratio(lw, sc):
        w = np.exp(lw)
        return (w[..., None] * sc).sum(axis=1) / w.sum(axis=1)[:, None]

    direct = ratio(log_w[:, : m // 2], scores[:, : m // 2]) - ratio(log_w, scores)
    delta = delta_from_inner(log_w, scores, level=3, antithetic=False)
    assert np.allclose(delta, direct, rtol=1e-12)


def test_level_zero_requires_self_score():
    with pytest.raises(ContractViolationError):
        delta_from_inner(np.zeros((1, 1)), np.zeros((1, 1, 1)), level=0)


def test_level_zero_variable_is_self_minus_ratio():
    log_w = np.array([[0.0, 0.0]])
    scores = np.array([[[1.0], [3.0]]])
    self_score = np.array([[5.0]])
    delta = delta_from_inner(log_w, scores, level=0, self_score=self_score)
    assert delta[0, 0] == pytest.approx(5.0 - 2.0)


def test_correction_telescopes_the_fine_variable():
    # psi_fine + delta must equal the average of the two half-batch psi
    # variables built from the same draws (the self terms cancel in delta).
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    rng = np.random.default_rng(4)
    delta, psi_fine = correction_samples(
        model, design, 3, LevelWeights(tau=1.5), PriorProposalFactory(), rng, 32,
        with_psi_fine=True,
    )
    assert delta.shape == psi_fine.shape == (32, 1)
    assert np.all(np.isfinite(delta))


def test_unbiased_gradient_deterministic_across_threads():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    a = unbiased_gradient(model, design, 2000, w, PriorProposalFactory(), 7, threads=1)
    b = unbiased_gradient(model, design, 2000, w, PriorProposalFactory(), 7, threads=4)
    assert np.array_equal(a.grad, b.grad)
    assert a.total_cost == b.total_cost
    assert a.per_sample_sq_norm_mean == b.per_sample_sq_norm_mean


def test_standard_gradient_deterministic_across_threads():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    a = standard_gradient(model, design, 2000, 4, PriorProposalFactory(), 9, threads=1)
    b = standard_gradient(model, design, 2000, 4, PriorProposalFactory(), 9, threads=3)
    assert np.array_equal(a.grad, b.grad)


def test_different_seeds_differ():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    a = unbiased_gradient(model, design, 512, w, PriorProposalFactory(), 1)
    b = unbiased_gradient(model, design, 512, w, PriorProposalFactory(), 2)
    assert not np.array_equal(a.grad, b.grad)


def test_realized_cost_tracks_sampled_levels():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    est = unbiased_gradient(model, design, 50_000, w, PriorProposalFactory(), 3)
    assert est.total_cost / est.n_outer == pytest.approx(w.expected_cost(), rel=0.05)


def test_invalid_sample_count_rejected():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    with pytest.raises(ContractViolationError):
        unbiased_gradient(model, design, 0, LevelWeights(), PriorProposalFactory(), 0)
