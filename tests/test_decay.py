"""Tests of the level-variance decay diagnostics."""

import warnings

import numpy as np
import pytest
from test_gradient import FlatLikelihoodModel

from mlmc_boed import (
    ContractViolationError,
    Design,
    DecayRow,
    LevelWeights,
    PriorProposalFactory,
    TestCaseProblem,
    decay_study,
)
from mlmc_boed.decay import check_study, fit_beta


def test_fit_beta_on_exact_geometric_decay():
    rows = [DecayRow(lvl, 1.0, 2.0 ** (-1.7 * lvl), 100) for lvl in range(8)]
    assert fit_beta(rows, (1, 7)) == pytest.approx(1.7, abs=1e-12)


def test_fit_beta_respects_range():
    rows = [DecayRow(0, 1.0, 100.0, 10)] + [
        DecayRow(lvl, 1.0, 2.0 ** (-2.0 * lvl), 10) for lvl in range(1, 6)
    ]
    # the outlier at level 0 is excluded by the default range
    assert fit_beta(rows, (1, 5)) == pytest.approx(2.0, abs=1e-12)
    assert fit_beta(rows, (0, 5)) != pytest.approx(2.0, abs=0.1)


def test_fit_beta_degenerate_range_is_nan():
    rows = [DecayRow(3, 1.0, 0.25, 10)]
    assert np.isnan(fit_beta(rows, (1, 8)))


def test_zero_mean_squares_give_nan_beta_without_a_warning():
    # every gradient variable of the flat likelihood is exactly zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decay_study(FlatLikelihoodModel(), Design(np.array([2.0])), 4, 50,
                          LevelWeights(tau=1.5), PriorProposalFactory(), 16)
    assert all(r.mean_sq_delta == 0.0 for r in rep.rows)
    assert np.isnan(rep.beta_hat)


def test_decay_study_shape_and_determinism():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    rep1 = decay_study(model, design, 5, 400, w, PriorProposalFactory(), 11)
    rep2 = decay_study(model, design, 5, 400, w, PriorProposalFactory(), 11)
    assert len(rep1.rows) == 5
    assert all(r.n_samples == 400 for r in rep1.rows)
    assert [r.mean_sq_delta for r in rep1.rows] == [r.mean_sq_delta for r in rep2.rows]
    assert rep1.fit_range == (1, 4)
    assert rep1.reliable


def test_correction_mean_squares_decrease(ratio_threshold=2.0):
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    w = LevelWeights(tau=1.5)
    rep = decay_study(model, design, 7, 3000, w, PriorProposalFactory(), 12)
    ms = [r.mean_sq_delta for r in rep.rows]
    # corrections shrink by at least 2x per level from level 1 on
    for a, b in zip(ms[1:-1], ms[2:]):
        assert a / b > ratio_threshold
    # fine-level variable mean square stays bounded away from zero
    assert all(r.mean_sq_psi > 0.01 for r in rep.rows)


def test_single_sample_study_flagged_unreliable():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    rep = decay_study(
        model, design, 3, 1, LevelWeights(tau=1.5), PriorProposalFactory(), 13
    )
    assert not rep.reliable
    assert len(rep.rows) == 3


def test_too_few_levels_rejected():
    model = TestCaseProblem()
    with pytest.raises(ContractViolationError):
        decay_study(
            model, Design(np.array([1.5])), 1, 10,
            LevelWeights(tau=1.5), PriorProposalFactory(), 14,
        )


def test_zero_samples_per_level_rejected_before_any_draw():
    class NoDraws(TestCaseProblem):
        def sample_prior(self, rng, n):
            raise AssertionError("drew before the check")

    with pytest.raises(ContractViolationError):
        decay_study(
            NoDraws(), Design(np.array([1.5])), 3, 0,
            LevelWeights(tau=1.5), PriorProposalFactory(), 14,
        )


def test_threads_reach_the_chunk_runner(monkeypatch):
    from mlmc_boed import decay

    seen = []

    def recording(*args, **kwargs):
        seen.append(args[4])
        return run_chunks(*args, **kwargs)

    run_chunks = decay._run_chunks
    model, design, w = TestCaseProblem(), Design(np.array([1.5])), LevelWeights(tau=1.5)
    one = decay_study(model, design, 4, 300, w, PriorProposalFactory(), 15)
    monkeypatch.setattr(decay, "_run_chunks", recording)
    two = decay_study(model, design, 4, 300, w, PriorProposalFactory(), 15, threads=2)
    assert seen == [2] * 4
    assert one == two


def test_levels_past_the_chunk_cap_rejected_before_any_draw():
    # m0 * 2**(levels - 1) = 2**23 inner samples for one level-23 sample,
    # more than a decay chunk holds.
    class NoDraws(TestCaseProblem):
        def sample_prior(self, rng, n):
            raise AssertionError("drew before the check")

    with pytest.raises(ContractViolationError):
        decay_study(
            NoDraws(), Design(np.array([1.5])), 24, 1,
            LevelWeights(m0=1, tau=1.5), PriorProposalFactory(), 14,
        )


def test_levels_that_would_share_sub_streams_rejected():
    # Level 0 of m0 = 2**21 holds 2 samples a chunk: 200,001 samples make
    # 100,001 chunks, the last of which would draw from level 1's first
    # sub-stream.  The check refuses the study; it is never started.
    with pytest.raises(ContractViolationError, match="sub-streams"):
        check_study(2, 200_001, 2**21)
    with pytest.raises(ContractViolationError, match="level 1 needs"):
        check_study(3, 200_001, 2**20)
    check_study(2, 200_000, 2**21)                # every level in its own streams
