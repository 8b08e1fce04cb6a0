"""Tests of the gradient variables, the self-normalized inner average and
the randomized-level estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mlmc_boed import (
    ContractViolationError,
    Design,
    LevelWeights,
    PriorProposalFactory,
    ProblemModel,
    TestCaseProblem,
    decay_study,
    eig_nested,
    standard_gradient,
    unbiased_gradient,
)
from mlmc_boed.gradient import _reduce, _segment_sums
from reduce_reference import reference_reduce, reference_segment_sums


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


def _ratio(log_w, scores):
    w = np.exp(log_w)
    return (w[..., None] * scores).sum(axis=1) / w.sum(axis=1)[:, None]


def _correction(log_w, scores, antithetic=True):
    """``delta`` of ``n`` level > 0 samples from ``(n, M)`` inner weights."""
    n, m = log_w.shape
    delta, _ = _reduce(log_w.ravel(), scores.reshape(n * m, -1), [n], [m],
                       [False], [True], antithetic)
    return delta


def test_flat_likelihood_gives_zero_gradient_variable():
    model = FlatLikelihoodModel()
    design = Design(np.array([2.0]))
    # Fixed M = 8, then randomized levels (0..3 at this seed).
    psi = standard_gradient(model, design, 64, 8, PriorProposalFactory(), 0)
    assert np.allclose(psi.grad, 0.0, atol=1e-14)
    assert psi.per_sample_sq_norm_mean < 1e-28
    delta = unbiased_gradient(model, design, 64, LevelWeights(tau=1.5), PriorProposalFactory(), 1)
    assert np.allclose(delta.grad, 0.0, atol=1e-13)
    assert delta.per_sample_sq_norm_mean < 1e-26


def test_identical_halves_cancel_exactly():
    rng = np.random.default_rng(1)
    half_w = rng.normal(size=(5, 4))
    half_s = rng.normal(size=(5, 4, 2))
    log_w = np.concatenate([half_w, half_w], axis=1)
    scores = np.concatenate([half_s, half_s], axis=1)
    assert np.allclose(_correction(log_w, scores), 0.0, atol=1e-13)


def test_antithetic_delta_matches_direct_formula():
    rng = np.random.default_rng(2)
    m = 16
    log_w = rng.normal(size=(6, m))
    scores = rng.normal(size=(6, m, 1))
    direct = (
        0.5 * (_ratio(log_w[:, : m // 2], scores[:, : m // 2])
               + _ratio(log_w[:, m // 2 :], scores[:, m // 2 :]))
        - _ratio(log_w, scores)
    )
    assert np.allclose(_correction(log_w, scores), direct, rtol=1e-12)


def test_naive_delta_uses_single_half():
    rng = np.random.default_rng(3)
    m = 8
    log_w = rng.normal(size=(4, m))
    scores = rng.normal(size=(4, m, 1))
    direct = _ratio(log_w[:, : m // 2], scores[:, : m // 2]) - _ratio(log_w, scores)
    assert np.allclose(_correction(log_w, scores, antithetic=False), direct, rtol=1e-12)


def test_level_zero_variable_is_self_minus_ratio():
    # One sample: its self row (weight 1, score 5), then inner scores 1 and 3.
    log_w = np.zeros(3)
    scores = np.array([[5.0], [1.0], [3.0]])
    delta, psi = _reduce(log_w, scores, [1], [2], [True], [False], True)
    assert delta[0, 0] == pytest.approx(5.0 - 2.0)
    assert psi[0, 0] == delta[0, 0]


def test_correction_telescopes_the_fine_variable():
    # delta = psi_fine - psi_coarse, where psi_coarse averages the two
    # half-batch psi variables of the same draws (the self terms cancel).
    rng = np.random.default_rng(4)
    n, m = 7, 8
    log_w = rng.normal(size=(n, m))
    scores = rng.normal(size=(n, m, 2))
    self_score = rng.normal(size=(n, 2))
    flat_w = np.concatenate([np.zeros((n, 1)), log_w], axis=1).ravel()
    flat_s = np.concatenate([self_score[:, None, :], scores], axis=1).reshape(-1, 2)
    delta, psi_fine = _reduce(flat_w, flat_s, [n], [m], [True], [True], True)
    psi_a = self_score - _ratio(log_w[:, : m // 2], scores[:, : m // 2])
    psi_b = self_score - _ratio(log_w[:, m // 2 :], scores[:, m // 2 :])
    assert np.allclose(psi_fine, self_score - _ratio(log_w, scores), rtol=1e-12)
    assert np.allclose(psi_fine - delta, 0.5 * (psi_a + psi_b), rtol=1e-12)
    # The decay study forms both variables from one model's draws.
    report = decay_study(TestCaseProblem(), Design(np.array([1.5])), 4, 32,
                         LevelWeights(tau=1.5), PriorProposalFactory(), 4)
    assert all(np.isfinite(r.mean_sq_delta) and r.mean_sq_psi > 0 for r in report.rows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_segment_sums_match_a_per_segment_loop(lengths, seed):
    rng = np.random.default_rng(seed)
    log_w = rng.normal(scale=30.0, size=sum(lengths))
    scores = rng.normal(size=(log_w.size, 2))
    starts = np.cumsum(lengths) - lengths
    top, den, num = _segment_sums(log_w, scores, starts, lengths)
    for k, (a, size) in enumerate(zip(starts, lengths)):
        seg = slice(a, a + size)
        lin = np.exp(log_w[seg] - log_w[seg].max())
        assert top[k] == log_w[seg].max()
        assert den[k] == pytest.approx(lin.sum(), rel=1e-12)
        assert np.allclose(num[k], lin @ scores[seg], rtol=1e-12, atol=1e-12)


@st.composite
def group_structures(draw):
    """``(counts, m, has_self, split)`` of a chunk as ``_chunk_variables``
    forms it: distinct increasing levels, self rows only at level 0, or a
    single level with self rows (the ``with_psi`` layout)."""
    m0 = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):                                   # with_psi
        lv = np.array([draw(st.integers(0, 5))])
        has_self = np.ones(1, dtype=bool)
    else:
        lv = np.array(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5))))
        has_self = lv == 0
    counts = np.array(draw(st.lists(st.integers(1, 6), min_size=lv.size, max_size=lv.size)))
    return counts, m0 * 2**lv, has_self, lv > 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(group_structures(), st.sampled_from([None, 1, 15]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_reduce_matches_the_reference_bit_for_bit(structure, d, antithetic, seed):
    counts, m, has_self, split = structure
    rng = np.random.default_rng(seed)
    n_rows = int((counts * (m + has_self)).sum())
    log_w = rng.normal(scale=30.0, size=n_rows)
    scores = None if d is None else rng.normal(size=(n_rows, d))
    got = _reduce(log_w, scores, counts, m, has_self, split, antithetic)
    want = reference_reduce(log_w, scores, counts, m, has_self, split, antithetic)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    first = rng.random(n_rows) < 0.3                          # ragged segments
    first[0] = True
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=n_rows)
    for a, b in zip(_segment_sums(log_w, scores, starts, lengths),
                    reference_segment_sums(log_w, scores, starts)):
        assert (a is None and b is None) or np.array_equal(a, b)


def inner_ratio(log_weights, scores):
    """``(log_rho_bar, ratio)`` of one inner batch, as one segment."""
    log_w = np.asarray(log_weights, dtype=float)
    scores = np.asarray(scores, dtype=float)
    top, den, num = _segment_sums(log_w, scores, np.zeros(1, dtype=np.intp), [log_w.size])
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


@pytest.mark.parametrize("estimator", [standard_gradient, eig_nested])
def test_fixed_m_estimators_reject_an_empty_inner_batch(estimator):
    class NoDraws(TestCaseProblem):
        def sample_prior(self, rng, n):
            raise AssertionError("drew before the check")

    with pytest.raises(ContractViolationError):
        estimator(NoDraws(), Design(np.array([1.5])), 10, 0, PriorProposalFactory(), 0)
