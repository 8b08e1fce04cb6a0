"""Tests of projection, the two update rules and the ascent driver."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_boed import (
    BoxDomain,
    ContractViolationError,
    RunConfig,
    eig_unbiased_mlmc,
    optimize,
)
from mlmc_boed.optim import project


@pytest.fixture
def box():
    return BoxDomain(lower=np.array([0.0, -1.0]), upper=np.array([2.0, 1.0]))


def test_projection_cases(box):
    assert np.allclose(project(np.array([1.0, 0.0]), box), [1.0, 0.0])
    assert np.allclose(project(np.array([-3.0, 5.0]), box), [0.0, 1.0])
    assert np.allclose(project(np.array([2.5, -0.5]), box), [2.0, -0.5])


_coord = st.floats(-1e6, 1e6, allow_nan=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(_coord, _coord, _coord).filter(lambda r: r[0] != r[1]),
                min_size=1, max_size=4))
def test_projection_idempotent(rows):
    # Each row is one coordinate: two distinct bounds and the point.
    a, b, x = (np.array(col) for col in zip(*rows))
    box = BoxDomain(lower=np.minimum(a, b), upper=np.maximum(a, b))
    p1 = project(x, box)
    assert np.array_equal(project(p1, box), p1)
    assert np.all((box.lower <= p1) & (p1 <= box.upper))


def test_projection_dimension_mismatch(box):
    with pytest.raises(ContractViolationError):
        project(np.array([1.0]), box)


def test_invalid_box_rejected():
    # An empty box, and NaN lower and upper bounds, which compare false.
    for lower, upper in ([1.0], [1.0]), ([np.nan], [1.0]), ([0.0], [np.nan]):
        with pytest.raises(ContractViolationError):
            BoxDomain(lower=np.array(lower), upper=np.array(upper))


def scripted(grads):
    """A ``gradient_fn`` that returns the given gradients in turn, at cost 1."""
    grads = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grads]
    return lambda t, x: (grads[t], 1)


def test_rm_step_moves_along_gradient():
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([10.0]))
    trace = optimize(np.array([1.5]), box, scripted([-0.04]), 1, rm_c=5.0)
    # first step size is c / 1 = 5
    assert trace[1].design[0] == pytest.approx(1.5 + 5.0 * (-0.04))
    assert trace[1].t == 1
    assert trace[1].polyak[0] == pytest.approx(trace[1].design[0])


def test_rm_rate_decays_harmonically():
    box = BoxDomain(lower=np.array([-10.0]), upper=np.array([10.0]))
    trace = optimize(np.array([0.0]), box, scripted([0.1] * 4), 4, rm_c=2.0)
    designs = np.array([row.design[0] for row in trace])
    rates = np.diff(designs) / 0.1
    assert rates == pytest.approx([2.0, 1.0, 2.0 / 3.0, 0.5])


def test_polyak_average_is_mean_of_iterates():
    box = BoxDomain(lower=np.array([-100.0]), upper=np.array([100.0]))
    trace = optimize(np.array([0.0]), box, scripted([1.0, -0.5, 0.25]), 3, rm_c=1.0)
    iterates = [row.design[0] for row in trace[1:]]
    assert trace[-1].polyak[0] == pytest.approx(np.mean(iterates))


def test_rm_step_respects_box():
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([1.0]))
    trace = optimize(np.array([0.9]), box, scripted([5.0]), 1, rm_c=10.0)
    assert trace[1].design[0] == 1.0


def test_polyak_mean_past_a_box_edge_is_still_evaluated():
    # The iterates sit on the upper bound, and their mean rounds one ulp past
    # it: the design it names is valid input for the estimators.
    cfg = RunConfig(lower=[0.1], upper=[0.7], xi0=[0.7], n_outer=64)
    base, box = cfg.make_design(), cfg.make_box()
    trace = optimize(base.values, box, lambda t, x: (np.ones(1), 1), 8)
    assert any(row.polyak[0] > box.upper[0] for row in trace)
    for row in trace:
        est = eig_unbiased_mlmc(cfg.make_model(), base.replace(row.polyak), cfg.n_outer,
                                cfg.make_weights(), cfg.make_proposal_factory(), row.t)
        assert np.isfinite(est.value)


def test_amsgrad_zero_gradient_is_fixed_point():
    box = BoxDomain(lower=np.array([-1.0]), upper=np.array([1.0]))
    trace = optimize(np.array([0.3]), box, scripted([0.0] * 3), 3, optimizer="amsgrad")
    assert trace[-1].design[0] == pytest.approx(0.3)


def test_amsgrad_constant_gradient_step_magnitude():
    # with a constant gradient g, m/sqrt(v_hat) -> sign(g), so the step
    # approaches alpha in magnitude
    box = BoxDomain(lower=np.array([-1e6]), upper=np.array([1e6]))
    trace = optimize(np.array([0.0]), box, lambda t, x: (np.array([2.0]), 1), 20_000,
                     optimizer="amsgrad", amsgrad_alpha=0.01)
    assert trace[-1].design[0] - trace[-2].design[0] == pytest.approx(0.01, rel=1e-3)
    assert trace[-1].design[0] > 0


# -- reference recursion ------------------------------------------------------
# The state-object form of both update rules, kept verbatim as the reference
# that ``optimize`` must reproduce to the bit.


@dataclass(frozen=True)
class RobbinsMonroState:
    """Robbins-Monro iterate with running sum for Polyak-Ruppert averaging.

    The built-in schedule a_t = c/(t+1) satisfies sum a_t = inf,
    sum a_t^2 < inf.
    """

    current: np.ndarray
    c: float = 5.0
    t: int = 0
    iterate_sum: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.iterate_sum is None:
            object.__setattr__(self, "iterate_sum", np.zeros_like(self.current))

    def rate(self) -> float:
        return self.c / (self.t + 1)

    @property
    def polyak_average(self) -> np.ndarray:
        if self.t == 0:
            return self.current.copy()
        return self.iterate_sum / self.t


def rm_step(state: RobbinsMonroState, grad: np.ndarray, box: BoxDomain) -> RobbinsMonroState:
    new = project(state.current + state.rate() * np.asarray(grad), box)
    return replace(
        state, current=new, t=state.t + 1, iterate_sum=state.iterate_sum + new
    )


@dataclass(frozen=True)
class AmsGradState:
    """AMSGrad moments (no bias correction, per the original formulation)."""

    current: np.ndarray
    alpha: float = 0.004
    beta1: float = 0.9
    beta2: float = 0.999
    eps_stab: float = 1e-8
    t: int = 0
    m: np.ndarray = None        # type: ignore[assignment]
    v: np.ndarray = None        # type: ignore[assignment]
    v_hat: np.ndarray = None    # type: ignore[assignment]

    def __post_init__(self):
        for name in ("m", "v", "v_hat"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.zeros_like(self.current))


def amsgrad_step(state: AmsGradState, grad: np.ndarray, box: BoxDomain) -> AmsGradState:
    g = np.asarray(grad, dtype=float)
    m = state.beta1 * state.m + (1 - state.beta1) * g
    v = state.beta2 * state.v + (1 - state.beta2) * g**2
    v_hat = np.maximum(state.v_hat, v)
    new = project(state.current + state.alpha * m / (np.sqrt(v_hat) + state.eps_stab), box)
    return replace(state, current=new, t=state.t + 1, m=m, v=v, v_hat=v_hat)


def assert_matches_reference(x0, box, gradient_fn, max_iters, optimizer, polyak, **kw):
    """``optimize`` equals the state-object recursion to the bit, row by row."""
    kw = dict(dict(rm_c=5.0, amsgrad_alpha=0.004, amsgrad_beta1=0.9,
                   amsgrad_beta2=0.999), **kw)
    trace = optimize(x0, box, gradient_fn, max_iters, optimizer=optimizer,
                     polyak=polyak, **kw)
    x0 = project(np.asarray(x0, dtype=float), box)
    if optimizer == "rm":
        state, step = RobbinsMonroState(current=x0, c=kw["rm_c"]), rm_step
    else:
        state, step = AmsGradState(current=x0, alpha=kw["amsgrad_alpha"],
                                   beta1=kw["amsgrad_beta1"],
                                   beta2=kw["amsgrad_beta2"]), amsgrad_step

    def averaged(st):
        if polyak and isinstance(st, RobbinsMonroState):
            return st.polyak_average
        return st.current.copy()

    rows = [(x0.copy(), averaged(state), float("nan"))]
    for t in range(max_iters):
        grad, _ = gradient_fn(t, state.current)
        prev = state
        state = step(state, grad, box)
        if optimizer == "amsgrad":
            assert np.all(state.v_hat >= prev.v_hat)   # v_hat is monotone
        rows.append((state.current.copy(), averaged(state), float(np.linalg.norm(grad))))

    assert [row.t for row in trace] == list(range(max_iters + 1))
    for row, (design, avg, gnorm) in zip(trace, rows, strict=True):
        assert row.design.tobytes() == design.tobytes()
        assert row.polyak.tobytes() == avg.tobytes()
        assert np.array_equal(row.grad_norm, gnorm, equal_nan=True)
    return trace


def test_amsgrad_vhat_is_monotone():
    box = BoxDomain(lower=np.array([-10.0]), upper=np.array([10.0]))
    grads = np.random.default_rng(1).normal(size=(50, 1))
    assert_matches_reference(np.array([0.0]), box, lambda t, x: (grads[t], 1), 50,
                             "amsgrad", False)


@pytest.mark.parametrize("optimizer", ["rm", "amsgrad"])
@pytest.mark.parametrize("polyak", [True, False])
@pytest.mark.parametrize("d", [1, 15])
def test_optimize_equals_reference_recursion_bitwise(optimizer, polyak, d):
    rng = np.random.default_rng(1000 * d + 10 * polyak + (optimizer == "rm"))
    for case in range(10):
        lower = rng.uniform(-1.0, -0.1, size=d)
        upper = rng.uniform(0.1, 1.0, size=d)
        box = BoxDomain(lower=lower, upper=upper)
        # the ascent is pulled outside the box, so the clamp is active
        target = rng.choice([-1.0, 1.0], size=d) * rng.uniform(2.5, 4.0, size=d)
        noise = rng.normal(scale=rng.uniform(0.1, 3.0), size=(60, d))

        def gradient_fn(t, x):
            return target - x + noise[t], 7

        trace = assert_matches_reference(
            rng.uniform(-3.0, 3.0, size=d), box, gradient_fn, 60, optimizer, polyak,
            rm_c=float(rng.uniform(0.5, 10.0)),
            amsgrad_alpha=float(rng.uniform(0.05, 0.5)),
            amsgrad_beta1=float(rng.uniform(0.5, 0.95)),
            amsgrad_beta2=float(rng.uniform(0.9, 0.9999)),
        )
        assert [row.cost_cumulative for row in trace] == [7 * t for t in range(61)]
        designs = np.array([row.design for row in trace[1:]])
        assert np.any((designs == lower) | (designs == upper))


def test_optimize_trace_shape_and_determinism():
    box = BoxDomain(lower=np.array([-5.0]), upper=np.array([5.0]))

    def gradient_fn(t, x):
        rng = np.random.default_rng(100 + t)
        return -x + 0.1 * rng.standard_normal(1), 3

    trace1 = optimize(np.array([2.0]), box, gradient_fn, 20)
    trace2 = optimize(np.array([2.0]), box, gradient_fn, 20)
    assert len(trace1) == 21
    assert trace1[0].t == 0 and trace1[-1].t == 20
    assert trace1[-1].cost_cumulative == 60
    for a, b in zip(trace1, trace2):
        assert np.array_equal(a.design, b.design)
        assert np.array_equal(a.polyak, b.polyak)


def test_optimize_zero_iterations_returns_initial_point():
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([1.0]))
    trace = optimize(np.array([0.5]), box, lambda t, x: (x, 1), 0)
    assert len(trace) == 1
    assert np.allclose(trace[0].design, [0.5])


def test_optimize_converges_with_exact_gradient():
    # maximize -(x - 0.7)^2 on [0, 2]
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([2.0]))

    def gradient_fn(t, x):
        return -2.0 * (x - 0.7), 1

    trace = optimize(np.array([1.9]), box, gradient_fn, 400, rm_c=0.4)
    assert abs(trace[-1].design[0] - 0.7) < 5e-3
    assert abs(trace[-1].polyak[0] - 0.7) < 0.05

    trace_ams = optimize(
        np.array([1.9]), box, gradient_fn, 3000, optimizer="amsgrad",
        amsgrad_alpha=0.01,
    )
    assert abs(trace_ams[-1].design[0] - 0.7) < 0.02


def test_unknown_optimizer_rejected():
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([1.0]))
    with pytest.raises(ContractViolationError):
        optimize(np.array([0.5]), box, lambda t, x: (x, 1), 1, optimizer="sgdx")


def test_on_iteration_callback_sees_every_row():
    box = BoxDomain(lower=np.array([0.0]), upper=np.array([1.0]))
    seen = []
    optimize(np.array([0.5]), box, lambda t, x: (np.zeros(1), 2), 5,
             on_iteration=lambda row: seen.append(row.t))
    assert seen == [0, 1, 2, 3, 4, 5]
