"""The interface the traced benchmark run wraps.

``bench/tracing.py`` subclasses the problem models and ``LevelWeights`` and
proxies the proposal factories and fitted proposals, passing every argument
through positionally.  A changed parameter list would break only the traced
benchmark run; pinning the lists here makes it fail the test suite instead.
"""

import inspect

import pytest

from mlmc_boed import LevelWeights, PkProblem, TestCaseProblem
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
    "prior_logpdf_derivs": ["theta"],
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
