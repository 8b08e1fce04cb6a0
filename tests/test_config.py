"""Tests of the run configuration document."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_boed import ConfigurationError, LevelWeights, RunConfig, default_config
from mlmc_boed.cli import main
from mlmc_boed.config import ESTIMATORS, OPTIMIZERS
from mlmc_boed.testcase import XI_LOWER


def test_round_trip_is_fixed_point():
    for problem in ("testcase", "pk"):
        cfg = default_config(problem)
        text = cfg.to_json()
        again = RunConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text


def test_document_naming_only_a_problem_is_its_default_config():
    assert RunConfig.from_json('{"problem": "pk"}') == default_config("pk")
    assert RunConfig.from_json('{"problem": "testcase"}') == default_config("testcase")
    assert RunConfig.from_json("{}") == default_config("testcase")


def test_defaults_testcase():
    cfg = default_config("testcase")
    assert cfg.optimizer == "rm" and cfg.rm_c == 5.0 and cfg.polyak
    assert cfg.n_outer == 2000 and cfg.max_iters == 10_000
    assert cfg.xi0 == [1.5]
    assert cfg.estimator == "mlmc" and cfg.tau == 1.5 and cfg.m0 == 1
    assert cfg.proposal == "prior"


def test_defaults_pk():
    cfg = default_config("pk")
    assert cfg.optimizer == "amsgrad" and cfg.amsgrad_alpha == 0.004
    assert cfg.amsgrad_beta1 == 0.9 and cfg.amsgrad_beta2 == 0.999
    assert cfg.w0 == 0.9 and cfg.proposal == "laplace"
    assert cfg.xi0 == [float(j) for j in range(1, 16)]
    assert cfg.lower == [0.0] * 15 and cfg.upper == [24.0] * 15


def test_factories_consistent():
    cfg = default_config("pk")
    model = cfg.make_model()
    design = cfg.make_design()
    assert design.dim == model.d == 15
    w = cfg.make_weights()
    assert w.w0_override == 0.9
    box = cfg.make_box()
    assert (box.upper == 24.0).all()


def test_stdmc_level_law_is_the_point_mass_at_inner_m():
    for problem in ("testcase", "pk"):
        cfg = default_config(problem).with_overrides(estimator="stdmc", inner_m=8)
        assert cfg.make_weights() == LevelWeights(m0=8, w0_override=1.0)
    with pytest.raises(ConfigurationError):           # tau is still checked
        default_config("testcase").with_overrides(estimator="stdmc", tau=0.5)


def test_overrides():
    cfg = default_config("testcase").with_overrides(seed=9, n_outer=50, tau=None)
    assert cfg.seed == 9 and cfg.n_outer == 50 and cfg.tau == 1.5


def test_invalid_values_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig(problem="nope")
    with pytest.raises(ConfigurationError):
        RunConfig(estimator="qmc")
    with pytest.raises(ConfigurationError):
        RunConfig(tau=1.0)
    with pytest.raises(ConfigurationError):
        RunConfig(n_outer=0)
    with pytest.raises(ConfigurationError):
        RunConfig(w0=2.0)
    with pytest.raises(ConfigurationError):
        RunConfig(problem="testcase", xi0=[-5.0])  # outside the box
    with pytest.raises(ConfigurationError):
        RunConfig(lower=[1.0], upper=[1.0], xi0=[1.0])  # a box with no interior
    with pytest.raises(ConfigurationError):
        RunConfig(problem="testcase", proposal="laplace")  # no Laplace-fit hooks
    for bad in (dict(rm_c=0.0), dict(rm_c=-5.0), dict(amsgrad_alpha=0.0),
                dict(amsgrad_beta1=1.0), dict(amsgrad_beta1=-0.1), dict(amsgrad_beta2=1.0),
                dict(amsgrad_beta2=-3.0)):
        with pytest.raises(ConfigurationError):
            RunConfig(**bad)
    assert RunConfig(amsgrad_beta1=0.0, amsgrad_beta2=0.0).amsgrad_beta1 == 0.0
    pk = default_config("pk")
    assert RunConfig(problem="pk", proposal="laplace", xi0=pk.xi0, lower=pk.lower,
                     upper=pk.upper).proposal == "laplace"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig.from_json('{"problem": "testcase", "turbo": true}')


def test_malformed_json_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig.from_json("{not json")
    with pytest.raises(ConfigurationError):
        RunConfig.from_json("[1, 2]")


# -- property tests -----------------------------------------------------------

# Open design box of each problem, and its default initial design.
_BOXES = {"testcase": (XI_LOWER, 10.0, [1.5]), "pk": (0.0, 24.0, [float(j) for j in range(1, 16)])}

_VALID = {
    "estimator": st.sampled_from(ESTIMATORS),
    "inner_m": st.integers(1, 64),
    "tau": st.floats(1.05, 3.0),
    "m0": st.integers(1, 8),
    "w0": st.none() | st.floats(0.05, 1.0),
    "optimizer": st.sampled_from(OPTIMIZERS),
    "rm_c": st.floats(1e-3, 100.0),
    "polyak": st.booleans(),
    "amsgrad_alpha": st.floats(1e-5, 1.0),
    "amsgrad_beta1": st.floats(0.0, 0.999),
    "amsgrad_beta2": st.floats(0.0, 0.999),
    "n_outer": st.integers(1, 10**6),
    "max_iters": st.integers(0, 10**6),
    "seed": st.integers(0, 2**64 - 1),
    "eig_every": st.integers(1, 10**4),
    "eig_n_outer": st.integers(1, 10**6),
    "levels": st.integers(2, 20),
    "samples_per_level": st.integers(1, 10**6),
}


@st.composite
def valid_documents(draw):
    """A config document that names a random subset of the known fields."""
    problem = draw(st.sampled_from(sorted(_BOXES)))
    doc = {"problem": problem}
    for name, values in _VALID.items():
        if draw(st.booleans()):
            doc[name] = draw(values)
    if problem == "pk" and draw(st.booleans()):
        doc["proposal"] = draw(st.sampled_from(["prior", "laplace"]))
    lo, hi, xi0 = _BOXES[problem]
    if draw(st.booleans()):
        xi0 = [draw(st.floats(lo, hi, exclude_min=True, exclude_max=True)) for _ in xi0]
        doc["xi0"] = xi0
    if draw(st.booleans()):
        doc["lower"] = [draw(st.floats(lo, v)) for v in xi0]
    if draw(st.booleans()):
        doc["upper"] = [draw(st.floats(v, hi, exclude_min=True)) for v in xi0]
    return doc


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SCALAR = st.text(max_size=4) | st.booleans() | st.none() | st.integers() \
    | st.floats(allow_nan=False, allow_infinity=False) | _NON_FINITE
_WRONG = {
    # Any value of another JSON type, or a non-finite number.
    "int": _SCALAR.filter(lambda v: not isinstance(v, int) or isinstance(v, bool))
    | st.lists(st.integers(), max_size=2),
    "float": st.text(max_size=4) | st.booleans() | st.none() | _NON_FINITE
    | st.lists(st.floats(), max_size=2),
    "optional float": st.text(max_size=4) | st.booleans() | _NON_FINITE
    | st.lists(st.floats(), max_size=2),
    "str": _SCALAR.filter(lambda v: not isinstance(v, str)) | st.lists(st.text(), max_size=2),
    "bool": _SCALAR.filter(lambda v: not isinstance(v, bool)) | st.lists(st.booleans(), max_size=2),
    "list": _SCALAR | st.lists(st.text(max_size=2), min_size=1, max_size=2)
    | st.lists(_NON_FINITE, min_size=1, max_size=2),
}
_KIND = {
    "problem": "str", "estimator": "str", "proposal": "str", "optimizer": "str",
    "polyak": "bool", "w0": "optional float", "lower": "list", "upper": "list", "xi0": "list",
    **{name: "int" for name in ("inner_m", "m0", "n_outer", "max_iters", "seed", "eig_every",
                                "eig_n_outer", "levels", "samples_per_level")},
    **{name: "float" for name in ("tau", "rm_c", "amsgrad_alpha", "amsgrad_beta1",
                                  "amsgrad_beta2")},
}


def test_field_kinds_cover_the_config():
    assert set(_KIND) == set(RunConfig.__dataclass_fields__)


@st.composite
def malformed_documents(draw):
    # Small work sizes, so that a document the validation wrongly accepts
    # fails the test quickly instead of running a long job.
    doc = {**draw(valid_documents()), "n_outer": 8, "max_iters": 1, "eig_every": 1,
           "eig_n_outer": 8, "inner_m": 1, "levels": 2, "samples_per_level": 8}
    name = draw(st.sampled_from(sorted(_KIND)))
    doc[name] = draw(_WRONG[_KIND[name]])
    return doc


@settings(derandomize=True, max_examples=80, deadline=None)
@given(valid_documents())
def test_valid_document_round_trips(doc):
    cfg = RunConfig.from_json(json.dumps(doc))
    assert {name: getattr(cfg, name) for name in doc} == doc
    default = default_config(doc["problem"])
    omitted = set(RunConfig.__dataclass_fields__) - set(doc)
    assert {name: getattr(cfg, name) for name in omitted} == \
        {name: getattr(default, name) for name in omitted}
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text


@settings(derandomize=True, max_examples=80, deadline=None)
@given(malformed_documents(), st.sampled_from(["decay", "optimize", "eig"]))
def test_malformed_document_exits_2_with_one_json_line(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "configuration"
        assert not out.exists()
