"""The interface the traced benchmark run wraps.

``bench/tracing.py`` subclasses the problem models and ``LevelWeights`` and
proxies the proposal factories and fitted proposals, passing every argument
through positionally.  A changed parameter list would break only the traced
benchmark run; pinning the lists here makes it fail the test suite instead.
The last test runs the benchmark's own wrappers (imported from ``bench/``,
which it does not change) around one gradient estimate.
"""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mlmc_boed import LevelWeights, PkProblem, TestCaseProblem, default_config, unbiased_gradient
from mlmc_boed.proposals import (
    FittedGaussian,
    FittedPrior,
    LaplaceProposalFactory,
    PriorProposalFactory,
)

MODEL_METHODS = {
    "simulate": ["design", "theta", "eps"],
    "loglik_score": ["design", "theta", "eps", "theta_inner"],
    "sample_prior": ["rng", "n"],
    "sample_noise": ["rng", "n"],
    "prior_logpdf": ["theta"],
}

PINNED = (
    [(model, name, params) for model in (PkProblem, TestCaseProblem)
     for name, params in MODEL_METHODS.items()]
    + [
        (PkProblem, "observation_derivs", ["design", "theta", "second"]),
        (PkProblem, "__init__", ["params"]),
        (TestCaseProblem, "__init__", ["params"]),
        (LaplaceProposalFactory, "fit", ["model", "design", "theta", "eps", "y"]),
        (PriorProposalFactory, "fit", ["model", "design", "theta", "eps", "y"]),
        (FittedGaussian, "sample_inner", ["rng", "m"]),
        (FittedPrior, "sample_inner", ["rng", "m"]),
        (LevelWeights, "sample_levels", ["rng", "n"]),
    ]
)


@pytest.mark.parametrize("owner,name,params", PINNED,
                         ids=[f"{o.__name__}.{n}" for o, n, _ in PINNED])
def test_wrapped_method_parameters(owner, name, params):
    signature = inspect.signature(getattr(owner, name))
    assert list(signature.parameters)[1:] == params


def test_wrapped_attributes():
    assert [f for f in LevelWeights.__dataclass_fields__] == ["m0", "tau", "w0_override"]
    assert LaplaceProposalFactory.name == "laplace" and PriorProposalFactory.name == "prior"
    model = PkProblem()
    fitted = FittedPrior(model, 4)
    assert (fitted.n, fitted.n_fallback) == (4, 0)


@pytest.mark.parametrize("problem", ["pk", "testcase"])
def test_traced_gradient_counts_every_inner_sample(monkeypatch, problem):
    # The traced run counts ``n * m`` inner samples per ``sample_inner(rng, m)``
    # call and writes its span table as JSON: ``m`` must stay one int per call.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    cfg = default_config(problem).with_overrides(n_outer=600, seed=7)
    parts = workloads.build_parts(cfg)
    rec = tracing.Recorder()
    traced = tracing.traced_parts(parts, rec)
    est = unbiased_gradient(traced.model, traced.base, cfg.n_outer, traced.weights,
                            traced.factory, cfg.seed)
    plain = unbiased_gradient(parts.model, parts.base, cfg.n_outer, parts.weights,
                              parts.factory, cfg.seed)
    table = tracing.span_table(rec)
    json.dumps(table)
    np.testing.assert_array_equal(est.grad, plain.grad)
    assert table["proposals.sample_inner"]["count"] == est.total_cost
    assert table["proposals.fit"]["calls"] == 2  # one fit per chunk of 512
    assert any(np.unique(levels).size > 1 for levels in rec.levels)
