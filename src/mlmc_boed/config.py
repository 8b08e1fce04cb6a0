"""Run configuration: a single JSON document with per-problem defaults.

``RunConfig`` is schema-validated at construction, serializes to JSON and
back as a fixed point, and carries defaults that reproduce the benchmark
settings of the two bundled problems (lognormal test case: Robbins-Monro
with Polyak averaging from xi0 = 1.5 in [1e-8, 10]; pharmacokinetic model:
AMSGrad from the equispaced 15-point schedule in [0, 24] with the 0.9
level-0 weight override and Laplace proposals).  A document's omitted fields
take its own problem's defaults.

This is the one statement of each problem's initial design ``xi0`` and box
``[lower, upper]``: the field defaults are the test case's, and
:func:`default_config` gives the pk ones.  :meth:`RunConfig.make_box` builds
the optimizer's box from them and :meth:`RunConfig.make_design` the initial
design, which must lie in it.  Each has one entry per design component; an
empty list is an error like any other wrong length.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .levels import LevelWeights
from .model import Design
from .optim import BoxDomain
from .pk import PkProblem
from .proposals import LaplaceProposalFactory, PriorProposalFactory
from .testcase import XI_LOWER, TestCaseProblem

PROBLEMS = ("testcase", "pk")
ESTIMATORS = ("stdmc", "mlmc", "mlmc-naive")
PROPOSALS = ("prior", "laplace")
OPTIMIZERS = ("rm", "amsgrad")


def _conforms(value, hint) -> bool:
    """Whether ``value`` has type ``hint``, without coercion.

    An int is a float; a bool is neither an int nor a float; NaN and the
    infinities are not floats.
    """
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, hint)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs besides the seed/thread-count overrides."""

    problem: str = "testcase"
    estimator: str = "mlmc"
    inner_m: int = 1          # M of the fixed-M estimator ("stdmc")
    tau: float = 1.5
    m0: int = 1
    w0: float | None = None   # optional level-0 mass override
    proposal: str = "prior"
    optimizer: str = "rm"
    rm_c: float = 5.0
    polyak: bool = True
    amsgrad_alpha: float = 0.004
    amsgrad_beta1: float = 0.9
    amsgrad_beta2: float = 0.999
    n_outer: int = 2000
    max_iters: int = 10_000
    seed: int = 0
    lower: list[float] = field(default_factory=lambda: [XI_LOWER])
    upper: list[float] = field(default_factory=lambda: [10.0])
    xi0: list[float] = field(default_factory=lambda: [1.5])
    eig_every: int = 500
    eig_n_outer: int = 2000
    levels: int = 9
    samples_per_level: int = 10_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, _FIELD_TYPES[f.name]):
                raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if self.proposal not in PROPOSALS:
            raise ConfigurationError(f"unknown proposal {self.proposal!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        for name in ("inner_m", "n_outer", "eig_every", "eig_n_outer", "samples_per_level"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be a 64-bit unsigned integer, in [0, 2**64)")
        if self.levels < 2:
            raise ConfigurationError("levels must be at least 2 (beta_hat needs two levels)")
        for name in ("rm_c", "amsgrad_alpha"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("amsgrad_beta1", "amsgrad_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must lie in [0, 1)")
        # inner_m is the m0 of "stdmc"'s point mass; the sample counts index
        # arrays and chunk lists.
        for name in ("inner_m", "n_outer", "eig_n_outer"):
            if getattr(self, name) >= 2**63:
                raise ConfigurationError(f"{name} must lie below 2**63")
        # Validate m0/tau/w0, the box and the initial design eagerly.
        LevelWeights(m0=self.m0, tau=self.tau, w0_override=self.w0)
        self.make_design()
        if self.proposal == "laplace" and not hasattr(self.make_model(), "observation_derivs"):
            raise ConfigurationError(
                f"the laplace proposal needs Laplace-fit hooks; the {self.problem} model has none"
            )

    # -- factories ---------------------------------------------------------

    def make_model(self):
        return TestCaseProblem() if self.problem == "testcase" else PkProblem()

    def make_box(self) -> BoxDomain:
        d = self.make_model().d
        for name in ("xi0", "lower", "upper"):
            given = getattr(self, name)
            if len(given) != d:
                raise ConfigurationError(
                    f"{name} has {len(given)} components; the {self.problem} design has {d}")
        try:
            return BoxDomain(lower=self.lower, upper=self.upper)
        except ContractViolationError as exc:
            raise ConfigurationError(str(exc)) from exc

    def make_design(self) -> Design:
        box = self.make_box()
        xi0 = np.asarray(self.xi0, dtype=float)
        if not ((box.lower <= xi0).all() and (xi0 <= box.upper).all()):
            raise ConfigurationError(
                f"xi0 {self.xi0} lies outside the box [{self.lower}, {self.upper}]")
        return Design(xi0)

    def make_weights(self) -> LevelWeights:
        """The estimator's level law; "stdmc" runs the point mass at level 0."""
        if self.estimator == "stdmc":
            return LevelWeights(m0=self.inner_m, w0_override=1.0)
        return LevelWeights(m0=self.m0, tau=self.tau, w0_override=self.w0)

    def make_proposal_factory(self):
        return PriorProposalFactory() if self.proposal == "prior" else LaplaceProposalFactory()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The document over its problem's defaults: an omitted field takes
        the value ``default_config`` gives it."""
        valid = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - valid
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return replace(default_config(data.get("problem", "testcase")), **data)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config document must be a JSON object")
        return cls.from_dict(data)

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def default_config(problem: str) -> RunConfig:
    """Benchmark settings for each bundled problem: what it changes from the
    ``RunConfig`` field defaults, which are the test case's."""
    if problem == "testcase":
        return RunConfig()
    if problem == "pk":
        return RunConfig(
            problem="pk",
            w0=0.9,
            proposal="laplace",
            optimizer="amsgrad",
            xi0=[float(j) for j in range(1, 16)],
            lower=[0.0] * 15,
            upper=[24.0] * 15,
        )
    raise ConfigurationError(f"unknown problem {problem!r}")
