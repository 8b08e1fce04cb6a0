"""Gradient-based Bayesian optimal experimental design.

Maximizes the expected information gain (EIG) of an experiment by projected
stochastic gradient ascent, driven by an unbiased gradient estimator built
from antithetic randomized multilevel Monte Carlo corrections.
"""

from .config import RunConfig, default_config
from .decay import DecayReport, DecayRow, decay_study
from .eig import (
    EigEstimate,
    eig_nested,
    eig_unbiased_mlmc,
    testcase_eig_closed,
    testcase_optimal_design,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DomainError,
    NumericalDomainError,
)
from .gradient import GradientEstimate, unbiased_gradient
from .levels import LevelWeights
from .model import Design, ProblemModel
from .optim import BoxDomain, TraceRow, optimize
from .pk import PkParams, PkProblem
from .proposals import LaplaceProposalFactory, PriorProposalFactory
from .testcase import TestCaseParams, TestCaseProblem

__all__ = [
    "BoxDomain",
    "ConfigurationError",
    "ContractViolationError",
    "DecayReport",
    "DecayRow",
    "Design",
    "DomainError",
    "EigEstimate",
    "GradientEstimate",
    "LaplaceProposalFactory",
    "LevelWeights",
    "NumericalDomainError",
    "PkParams",
    "PkProblem",
    "PriorProposalFactory",
    "ProblemModel",
    "RunConfig",
    "TestCaseParams",
    "TestCaseProblem",
    "TraceRow",
    "decay_study",
    "default_config",
    "eig_nested",
    "eig_unbiased_mlmc",
    "optimize",
    "testcase_eig_closed",
    "testcase_optimal_design",
    "unbiased_gradient",
]

__version__ = "0.1.0"
