"""Tests of the gradient variables, the self-normalized inner average and
the randomized-level estimator."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from mlmc_boed import (
    ContractViolationError,
    Design,
    LaplaceProposalFactory,
    LevelWeights,
    NumericalDomainError,
    PkProblem,
    PriorProposalFactory,
    ProblemModel,
    TestCaseProblem,
    decay_study,
    default_config,
    eig_nested,
    eig_unbiased_mlmc,
    unbiased_gradient,
)
import fault_probe
import loop_reference
from mlmc_boed import gradient
from mlmc_boed.gradient import _batch_variables, _draw_chunk, _plan, _reduce, _segment_sums
from mlmc_boed.rng import CHUNK_SIZE, PHASE_EIG, PHASE_GRADIENT, stream
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
    self_term = np.zeros((n, scores.shape[-1]))              # cancels at l > 0
    delta, _ = _reduce(log_w.ravel(), scores.reshape(n * m, -1), self_term, np.full(n, m),
                       np.ones(n, dtype=bool), antithetic)
    return delta


def test_flat_likelihood_gives_zero_gradient_variable():
    model = FlatLikelihoodModel()
    design = Design(np.array([2.0]))
    # Fixed M = 8, then randomized levels (0..3 at this seed).
    psi = unbiased_gradient(model, design, 64, LevelWeights(m0=8, w0_override=1.0),
                            PriorProposalFactory(), 0)
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
    # One sample: its self score 5, and inner scores 1 and 3 of weight 1.
    log_w = np.zeros(2)
    scores = np.array([[1.0], [3.0]])
    delta, psi = _reduce(log_w, scores, np.array([[5.0]]), np.array([2]), np.array([False]),
                         True)
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
    delta, psi_fine = _reduce(log_w.ravel(), scores.reshape(-1, 2), self_score,
                              np.full(n, m), np.ones(n, dtype=bool), True)
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
    """``(counts, m, has_self, split)`` of the level groups of a batch: 1-3
    chunks one after another, each with distinct increasing levels (its own
    level-0 group, if any), and a self term for every sample."""
    m0 = draw(st.sampled_from([1, 2]))
    lv = np.concatenate([
        sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
        for _ in range(draw(st.integers(1, 3)))
    ]).astype(int)
    has_self = np.ones(lv.size, dtype=bool)
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
    # The reference reads each sample's self row before its inner rows; the
    # package takes the self terms apart from the inner rows.
    row0 = np.cumsum(np.repeat(m + 1, counts)) - np.repeat(m + 1, counts)
    inner = np.ones(n_rows, dtype=bool)
    inner[row0] = False
    self_term = log_w[row0] if scores is None else scores[row0]
    # The package takes its samples one by one, the reference as groups.
    got = _reduce(log_w[inner], None if scores is None else scores[inner], self_term,
                  m.repeat(counts), split.repeat(counts), antithetic)
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


def _record_calls(monkeypatch, model):
    """The ``theta_inner`` shape of each of ``model``'s likelihood calls,
    from now on."""
    shapes = []
    lik = model.loglik_score

    def recorded(design, theta, eps, theta_inner):
        shapes.append(theta_inner.shape)
        return lik(design, theta, eps, theta_inner)

    monkeypatch.setattr(model, "loglik_score", recorded)
    return shapes


def test_unbiased_gradient_deterministic_across_threads(monkeypatch):
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    calls = _record_calls(monkeypatch, model)
    # 40 chunks of about 2,200 likelihood entries each: more than one batch.
    a = unbiased_gradient(model, design, 20_000, w, PriorProposalFactory(), 7, threads=1)
    assert len(calls) >= 4                  # at least 2 batches, so that the pool runs
    b = unbiased_gradient(model, design, 20_000, w, PriorProposalFactory(), 7, threads=4)
    assert np.array_equal(a.grad, b.grad)
    assert a.total_cost == b.total_cost
    assert a.per_sample_sq_norm_mean == b.per_sample_sq_norm_mean


@pytest.mark.parametrize("threads", [1, 2])
def test_narrow_chunks_of_one_estimate_share_their_likelihood_calls(monkeypatch, threads):
    # The 4 chunks of a test-case step hold about 2,200 likelihood entries
    # each, so they are one batch: one self call and one inner call.
    model = TestCaseProblem()
    calls = _record_calls(monkeypatch, model)
    unbiased_gradient(model, Design(np.array([1.5])), 2000, LevelWeights(tau=1.5),
                      PriorProposalFactory(), 1, threads=threads)
    assert len(calls) == 2 and calls[0] == (2000, 1, model.s)
    # A PK chunk holds about 17,000 entries, so the 4 chunks of a PK step
    # are one batch too at this seed (see ``test_a_pk_step_is_one_batch``).
    cfg = default_config("pk")
    model = cfg.make_model()
    calls = _record_calls(monkeypatch, model)
    unbiased_gradient(model, cfg.make_design(), cfg.n_outer, cfg.make_weights(),
                      cfg.make_proposal_factory(), 1, threads=threads)
    assert len(calls) == 2 and calls[0] == (cfg.n_outer, 1, model.s)


def test_standard_gradient_deterministic_across_threads():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    fixed_m = LevelWeights(m0=4, w0_override=1.0)
    a = unbiased_gradient(model, design, 2000, fixed_m, PriorProposalFactory(), 9, threads=1)
    b = unbiased_gradient(model, design, 2000, fixed_m, PriorProposalFactory(), 9, threads=3)
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


def test_numpy_integer_m0_gives_the_bytes_of_an_int():
    model, design, factory = TestCaseProblem(), Design(np.array([1.5])), PriorProposalFactory()

    def run(m0, m_inner):
        g = unbiased_gradient(model, design, 700, LevelWeights(m0=m0, tau=1.5), factory, 3)
        e = eig_nested(model, design, 300, m_inner, factory, 4)
        r = decay_study(model, design, 4, 20, LevelWeights(m0=m0, tau=1.5), factory, 5)
        return (g.grad, g.total_cost, g.per_sample_sq_norm_mean, e.value, e.std_error,
                e.total_inner_cost, [[x.mean_sq_psi, x.mean_sq_delta] for x in r.rows])

    want = run(2, 8)
    for integer in (np.uint64, np.int32):
        assert type(LevelWeights(m0=integer(2)).m0) is int
        _assert_same_bytes(run(integer(2), integer(8)), want)


class NanRowModel(FlatLikelihoodModel):
    """A model with no finiteness check of its own whose log-likelihood is
    NaN in the first row of every self call (``theta_inner`` a view of
    ``theta``) or of every inner call."""

    def __init__(self, call):
        self.call = call

    def loglik_score(self, design, theta, eps, theta_inner):
        log_rho, score = super().loglik_score(design, theta, eps, theta_inner)
        if np.shares_memory(theta, theta_inner) == (self.call == "self"):
            log_rho[0] = np.nan
        return log_rho, score


@pytest.mark.parametrize("call", ["self", "inner"])
def test_a_non_finite_log_likelihood_of_any_model_stops_every_estimator(call):
    model, design, factory = NanRowModel(call), Design(np.array([1.5])), PriorProposalFactory()
    weights = LevelWeights(m0=2, tau=1.5)
    runs = [lambda: unbiased_gradient(model, design, 50, weights, factory, 1),
            lambda: eig_unbiased_mlmc(model, design, 50, weights, factory, 2),
            lambda: decay_study(model, design, 3, 8, weights, factory, 3)]
    for run in runs:
        with pytest.raises(NumericalDomainError, match="non-finite log-likelihood"):
            run()


@pytest.mark.parametrize("estimator", [eig_nested])
def test_fixed_m_estimators_reject_an_empty_inner_batch(estimator):
    class NoDraws(TestCaseProblem):
        def sample_prior(self, rng, n):
            raise AssertionError("drew before the check")

    with pytest.raises(ContractViolationError):
        estimator(NoDraws(), Design(np.array([1.5])), 10, 0, PriorProposalFactory(), 0)


# ---------------------------------------------------------------------------
# blocks of whole outer samples

PROBLEMS = {
    "testcase-prior": (TestCaseProblem, Design(np.array([1.5])), PriorProposalFactory),
    "pk-laplace": (PkProblem, Design(default_config("pk").xi0), LaplaceProposalFactory),
}
# One sample per block, a few samples per block (one level-9 test-case or
# level-6 PK sample is wider than that), and every chunk as one block.
BUDGETS = (1, 300, 2**40)


def _chunk_variables(model, design, factory, rng, levels, m0, **kw):
    """``(delta, psi, n_fallback)`` of one chunk, in level order, drawn from
    ``rng`` after its ``levels`` and evaluated as a batch of its own."""
    [[(_, m)]] = _plan([np.bincount(levels)], m0, model)
    draw = _draw_chunk(model, design, factory, rng, m)
    return _batch_variables(model, design, [draw], m, m > m0, **kw)[0]


def _per_budget(monkeypatch, run):
    """``run()`` under each block budget in turn."""
    results = []
    for budget in BUDGETS:
        monkeypatch.setattr(gradient, "_BLOCK_ENTRIES", budget)
        results.append(run())
    return results


def _assert_same_bytes(a, b):
    for x, y in zip(a, b, strict=True):
        if x is None or y is None:
            assert x is None and y is None
        else:
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _chunk_cases(model):
    rng = np.random.default_rng(5)
    wide = 9 if model.t == 2 else 6
    mixed = np.concatenate([np.zeros(30, dtype=int), rng.integers(1, 4, 40), [wide]])
    return {
        "multi-level": (rng.permutation(mixed), 1, {}),
        "single-level": (np.full(40, 3), 1, {}),
        "point-mass": (np.zeros(40, dtype=int), 8, {}),
        "eig": (rng.permutation(mixed), 2, {"scored": False}),
        "naive": (rng.permutation(mixed), 1, {"antithetic": False}),
    }


@pytest.mark.parametrize("problem", PROBLEMS)
def test_block_boundaries_change_no_bit_of_a_chunk(monkeypatch, problem):
    make_model, design, factory = PROBLEMS[problem]
    model = make_model()
    calls = []
    lik = model.loglik_score

    def counted(*args):
        calls[-1] += 1
        return lik(*args)

    monkeypatch.setattr(model, "loglik_score", counted)
    for name, (levels, m0, kw) in _chunk_cases(model).items():
        def run():
            calls.append(0)
            return _chunk_variables(model, design, factory(), stream(3, 0, 1), levels, m0, **kw)

        one, few, whole = _per_budget(monkeypatch, run)
        # The self call, then one call per block, or one for the whole chunk.
        assert calls[-3] == levels.size + 1 and calls[-1] == 2, name
        assert 2 < calls[-2] < levels.size + 1, name
        _assert_same_bytes(one, whole)
        _assert_same_bytes(few, whole)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_multi_level_psi_comes_back_in_level_order(problem):
    make_model, design, factory = PROBLEMS[problem]
    model = make_model()
    cases = _chunk_cases(model)
    for name in ("multi-level", "eig"):
        levels, m0, kw = cases[name]
        delta, psi, _ = _chunk_variables(model, design, factory(), stream(3, 0, 1), levels,
                                         m0, **kw)
        assert psi.dtype == delta.dtype and psi.shape == delta.shape, name
        zero = np.sort(levels) == 0                   # psi is delta at level 0
        assert zero.any() and psi[zero].tobytes() == delta[zero].tobytes(), name
    # The gradient psi of every level, sample for sample, against the loop,
    # whose groups come in increasing level, each in drawn order.
    levels, m0, _ = cases["multi-level"]
    _, psi, _ = _chunk_variables(model, design, factory(), stream(3, 0, 1), levels, m0)
    groups, _ = loop_reference._groups(model, design, factory(), stream(3, 0, 1), levels, m0)
    want = np.empty_like(psi)
    for level, _, *draws in groups:
        want[np.sort(levels) == level] = loop_reference.correction_samples(
            model, design, level, *draws)[1]
    np.testing.assert_allclose(psi, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class ReversedLevels(LevelWeights):
    """Each chunk's levels as drawn, reversed: the same counts in another
    order, from the same draws."""

    def sample_levels(self, rng, n):
        return super().sample_levels(rng, n)[::-1]


@pytest.mark.parametrize("problem", PROBLEMS)
def test_the_drawn_order_of_a_chunks_levels_changes_no_bit(problem):
    # The estimators see a chunk's levels only as their counts, and sum its
    # samples in level order.
    make_model, design, factory = PROBLEMS[problem]
    model = make_model()

    def run(weights):
        out = []
        for antithetic in (True, False):
            g = unbiased_gradient(model, design, 600, weights, factory(), 3,
                                  antithetic=antithetic)
            out += [g.grad, g.total_cost, g.per_sample_sq_norm_mean, g.n_fallback]
        e = eig_unbiased_mlmc(model, design, 600, weights, factory(), 3)
        return out + [e.value, e.std_error, e.total_inner_cost, e.n_fallback]

    _assert_same_bytes(run(ReversedLevels()), run(LevelWeights()))


@pytest.mark.parametrize("problem", PROBLEMS)
def test_block_boundaries_change_no_bit_of_an_estimate(monkeypatch, problem):
    make_model, design, factory = PROBLEMS[problem]
    model = make_model()
    levels, n_outer = (6, 40) if model.t == 2 else (5, 12)

    wide = LevelWeights(m0=64, tau=1.5)             # multi-level chunks past the budget

    def run():
        report = decay_study(model, design, levels, n_outer, LevelWeights(tau=1.5), factory(), 2)
        grad = unbiased_gradient(model, design, 10 * n_outer, LevelWeights(tau=1.5), factory(), 3)
        eig = eig_unbiased_mlmc(model, design, 10 * n_outer, LevelWeights(tau=1.5), factory(), 4)
        wide_grad = unbiased_gradient(model, design, 2 * n_outer, wide, factory(), 5)
        wide_eig = eig_unbiased_mlmc(model, design, 2 * n_outer, wide, factory(), 6)
        return ([[r.mean_sq_psi, r.mean_sq_delta] for r in report.rows], grad.grad,
                grad.per_sample_sq_norm_mean, eig.value, eig.std_error, wide_grad.grad,
                wide_grad.per_sample_sq_norm_mean, wide_eig.value, wide_eig.std_error)

    one, few, whole = _per_budget(monkeypatch, run)
    _assert_same_bytes(one, whole)
    _assert_same_bytes(few, whole)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_wide_multi_level_chunks_are_cut_into_runs_of_whole_samples(monkeypatch, problem):
    make_model, design, factory = PROBLEMS[problem]
    model = make_model()
    levels, m0, _ = _chunk_cases(model)["multi-level"]
    lv = np.sort(levels)
    row_level = lv.repeat(2 ** (lv - lv[0]))          # the chunk's fit rows, in level order
    sample_ends = set(np.cumsum(2 ** (lv - lv[0])).tolist())
    lik = model.loglik_score
    calls = []

    def recorded(design, theta, eps, theta_inner):
        is_self = theta_inner.shape[1] == 1 and np.array_equal(theta_inner[:, 0], theta)
        calls.append((is_self, theta.shape[0], theta_inner.shape))
        return lik(design, theta, eps, theta_inner)

    def run(budget):
        monkeypatch.setattr(gradient, "_BLOCK_ENTRIES", budget)
        return _chunk_variables(model, design, factory(), stream(3, 0, 1), levels, m0)

    whole = run(2**40)
    monkeypatch.setattr(model, "loglik_score", recorded)
    cut = run(300)
    assert [shape for is_self, _, shape in calls if is_self] == [(levels.size, 1, model.s)]
    blocks = [(rows, shape) for is_self, rows, shape in calls if not is_self]
    assert len(blocks) > 1
    r, spans = 0, []
    for rows, shape in blocks:                        # slices of the fit rows, in order
        assert shape == (rows, m0 * 2 ** lv[0], model.s), calls
        assert r + rows in sample_ends, calls                      # runs of whole samples
        spans.append(row_level[r] != row_level[r + rows - 1])
        r += rows
    assert r == row_level.size
    assert any(spans), calls                          # a run spans two level groups
    _assert_same_bytes(cut, whole)


# ---------------------------------------------------------------------------
# batches of narrow chunks

BATCH_PROBLEMS = {**PROBLEMS, "pk-prior": (PkProblem, Design(default_config("pk").xi0),
                                           PriorProposalFactory)}
BATCH_LAWS = {
    "tau1.5": LevelWeights(tau=1.5),
    "w0=0.9": LevelWeights(w0_override=0.9),
    "m0=64": LevelWeights(m0=64),
    "point-m0=4": LevelWeights(m0=4, w0_override=1.0),
}


@pytest.mark.parametrize("problem", BATCH_PROBLEMS)
def test_batch_boundaries_change_no_bit_of_an_estimate(monkeypatch, problem):
    make_model, design, factory = BATCH_PROBLEMS[problem]
    model = make_model()
    seed = 8
    # 1,100 samples: two full chunks and a short one, of one width under
    # every law here.  513: the trailing chunk's one sample has level > 0
    # under tau 1.5, so its fit rows are wider and it must not join.
    for phase in (PHASE_GRADIENT, PHASE_EIG):
        first, last = (BATCH_LAWS["tau1.5"].sample_levels(stream(seed, phase, i), n).min()
                       for i, n in ((0, CHUNK_SIZE), (1, 1)))
        assert first == 0 < last

    def run():
        out = []
        for w in BATCH_LAWS.values():
            for n_outer in (1100, CHUNK_SIZE + 1):
                for antithetic in (True, False):
                    g = unbiased_gradient(model, design, n_outer, w, factory(), seed,
                                          antithetic=antithetic)
                    out += [g.grad, g.total_cost, g.per_sample_sq_norm_mean, g.n_fallback]
                e = eig_unbiased_mlmc(model, design, n_outer, w, factory(), seed)
                out += [e.value, e.std_error, e.total_inner_cost, e.n_fallback]
        return out

    default = run()
    for budget in (1, 2**40):        # every chunk alone; every run of equal widths together
        monkeypatch.setattr(gradient, "_BLOCK_ENTRIES", budget)
        _assert_same_bytes(run(), default)


def _block_shapes(monkeypatch, model, design, plan, m0):
    """The ``theta_inner`` shape of each likelihood call but the self call,
    per batch of ``plan``, each chunk drawn from its own stream."""
    calls = _record_calls(monkeypatch, model)
    blocks = []
    for batch in plan:
        draws = [_draw_chunk(model, design, PriorProposalFactory(), np.random.default_rng(i), m)
                 for i, m in batch]
        m = np.concatenate([m for _, m in batch])
        del calls[:]
        _batch_variables(model, design, draws, m, m > m0)
        assert calls[0] == (m.size, 1, model.s)
        blocks.append(calls[1:])
    return blocks


def test_batches_are_runs_of_equal_width_within_the_budget(monkeypatch):
    monkeypatch.setattr(gradient, "_BLOCK_ENTRIES", 40)
    model, design = TestCaseProblem(), Design(np.array([1.5]))
    levels = [np.array(lv) for lv in ([0, 1, 0], [0, 2], [0], [1, 1], [2], [0] * 30, [0],
                                      [0] * 9)]
    # At m0 2 and t 2: widths 2, 2, 2, 4, 8, 2, 2, 2 and entries 16, 20, 4,
    # 16, 16, 120, 4, 36.
    plan = _plan([np.bincount(lv) for lv in levels], 2, model)
    assert [[i for i, _ in batch] for batch in plan] == [[0, 1, 2], [3], [4], [5], [6, 7]]
    for batch in plan:                            # each chunk's inner counts, in level order
        for i, m in batch:
            assert m.tolist() == (2 << np.sort(levels[i])).tolist()
    # A batch within the budget is one block of all its fit rows, in chunk
    # order; the lone chunk of 120 entries is cut into runs of whole samples
    # within the budget.
    assert _block_shapes(monkeypatch, model, design, plan, 2) == [
        [(10, 2, 2)], [(2, 4, 2)], [(1, 8, 2)], [(10, 2, 2)] * 3, [(10, 2, 2)]]
    # A lone multi-level chunk over the budget is cut greedily into runs of
    # whole samples: 5 level-0 samples of 4 entries and 2 at level 1 of 8
    # (two fit rows each), then the other 4 at level 1, then one at level 4
    # of 64, wider than the budget, in a run of its own.
    levels = [np.array([0] * 5 + [1] * 6 + [4])]
    plan = _plan([np.bincount(lv) for lv in levels], 2, model)
    assert _block_shapes(monkeypatch, model, design, plan, 2) == [
        [(9, 2, 2), (8, 2, 2), (16, 2, 2)]]


def test_a_pk_step_is_one_batch(monkeypatch):
    # A default pk step of 2,000 outer samples is four chunks which, at this
    # seed, share the fit-row width and hold fewer likelihood entries than
    # the budget together: one self call and one inner call serve them all.
    cfg = default_config("pk")
    model, design, weights = cfg.make_model(), cfg.make_design(), cfg.make_weights()
    seed, n_outer = 3, 2000
    levels = [weights.sample_levels(stream(seed, PHASE_GRADIENT, i), n)
              for i, n in enumerate((CHUNK_SIZE,) * 3 + (n_outer - 3 * CHUNK_SIZE,))]
    assert {lv.min() for lv in levels} == {0}
    entries = sum(int(weights.inner_samples(lv).sum()) for lv in levels) * model.t
    assert entries <= gradient._BLOCK_ENTRIES
    lik, calls = model.loglik_score, []

    def counted(*args):
        calls.append(args[3].shape)
        return lik(*args)

    monkeypatch.setattr(model, "loglik_score", counted)
    unbiased_gradient(model, design, n_outer, weights, cfg.make_proposal_factory(), seed)
    assert calls[0] == (n_outer, 1, model.s) and len(calls) == 2, calls


def _glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the freed-memory setting is glibc's")
@pytest.mark.parametrize("case,bound", [("pk-grad-2000", 100), ("tc-grad-2000", 20)])
def test_a_repeated_gradient_faults_in_no_fresh_pages(case, bound):
    # In a fresh interpreter, 5 warm-up calls and then 20 calls at n_outer
    # 2000, all the same call: each reuses the heap memory of the call
    # before.  Where glibc hands that memory back, a pk call faults in about
    # 3,000 fresh pages, and this test-case call up to about 200 (or none,
    # as glibc's trim threshold falls above or below its memory).
    row = fault_probe.measure(case, ops=20, seed=1)
    assert row["faults_per_op"] < bound, row


@pytest.mark.parametrize("problem", PROBLEMS)
def test_likelihood_layouts_agree_bit_for_bit(problem):
    # Blocks rest on this: a row's values do not depend on the layout it is
    # passed in, nor on the other rows of the call.
    make_model, design, _ = PROBLEMS[problem]
    model = make_model()
    rng = np.random.default_rng(8)
    n, m = 9, 6
    theta = model.sample_prior(rng, n)
    eps = model.sample_noise(rng, n)
    theta_in = model.sample_prior(rng, n * m).reshape(n, m, model.s)
    log_rho, score = model.loglik_score(design, theta, eps, theta_in)
    ragged = model.loglik_score(design, theta.repeat(m, axis=0), eps.repeat(m, axis=0),
                                theta_in.reshape(n * m, 1, model.s))
    _assert_same_bytes(ragged, (log_rho.reshape(n * m, 1), score.reshape(n * m, 1, -1)))
    rows = slice(2, 7)
    sliced = model.loglik_score(design, theta[rows], eps[rows], theta_in[rows])
    _assert_same_bytes(sliced, (log_rho[rows], score[rows]))


def test_prior_proposal_correction_is_a_read_only_zero():
    model = TestCaseProblem()
    design, rng = Design(np.array([1.5])), np.random.default_rng(0)
    theta, eps = model.sample_prior(rng, 5), model.sample_noise(rng, 5)
    y = model.simulate(design, theta, eps)
    fitted = PriorProposalFactory().fit(model, design, theta, eps, y)
    theta_in, corr = fitted.sample_inner(np.random.default_rng(1), 7)
    assert theta_in.shape == (5, 7, 2)
    assert corr.shape == (5, 7) and not corr.any()
    assert not corr.flags.writeable
    assert corr.strides == (0, 0)                     # no memory per inner sample
