"""Tests of the run configuration document."""

import pytest

from mlmc_boed import ConfigurationError, RunConfig, default_config


def test_round_trip_is_fixed_point():
    for problem in ("testcase", "pk"):
        cfg = default_config(problem)
        text = cfg.to_json()
        again = RunConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text


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
    assert RunConfig(problem="pk", proposal="laplace").proposal == "laplace"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig.from_json('{"problem": "testcase", "turbo": true}')


def test_malformed_json_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig.from_json("{not json")
    with pytest.raises(ConfigurationError):
        RunConfig.from_json("[1, 2]")
