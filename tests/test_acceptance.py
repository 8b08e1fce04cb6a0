"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so a full
run yields a readable scorecard.  Tolerances are fixed; seeds are pinned so
every statistical check is deterministic.
"""

import sys

import numpy as np
import pytest

from mlmc_boed import (
    BoxDomain,
    Design,
    LaplaceProposalFactory,
    LevelWeights,
    PkProblem,
    PriorProposalFactory,
    TestCaseProblem,
    decay_study,
    default_config,
    eig_nested,
    optimize,
    testcase_eig_closed,
    testcase_optimal_design,
    unbiased_gradient,
)
from laplace_reference import LinearGaussianModel
from loop_reference import _groups
from mlmc_boed.cli import main as cli_main
from mlmc_boed.proposals import laplace_fit_batch
from mlmc_boed.rng import PHASE_OPTIMIZE, stream


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_closed_form_eig_gap():
    gap = testcase_eig_closed(testcase_optimal_design()) - testcase_eig_closed(1.5)
    ok = abs(gap - 0.0148) <= 2e-4
    report(1, ok, f"EIG(optimum) - EIG(1.5) = {gap:.6f} (target 0.0148 +- 2e-4)")
    assert ok


def _max_antithetic_violation(model, design, factory, seed, n_per_level):
    """Worst relative error of the fine-vs-half-sums coupling identities."""
    worst = 0.0
    for lvl in range(1, 6):
        m = 2**lvl
        rng = stream(seed, 99, lvl)
        ((_, _, theta, eps, theta_in, corr),), _ = _groups(
            model, design, factory, rng, np.full(n_per_level, lvl), 1)
        log_rho, scores = model.loglik_score(design, theta, eps, theta_in)
        log_w = log_rho + corr
        shift = log_w.max(axis=-1, keepdims=True)
        lin = np.exp(log_w - shift)
        den_f = lin.sum(axis=-1)
        den_ab = lin[:, : m // 2].sum(axis=-1) + lin[:, m // 2 :].sum(axis=-1)
        worst = max(worst, float(np.abs(den_f - den_ab).max() / den_f.min()))
        num_f = np.einsum("nm,nmd->nd", lin, scores)
        num_ab = (np.einsum("nm,nmd->nd", lin[:, : m // 2], scores[:, : m // 2])
                  + np.einsum("nm,nmd->nd", lin[:, m // 2 :], scores[:, m // 2 :]))
        scale = np.abs(num_f) + den_f[:, None]
        worst = max(worst, float((np.abs(num_f - num_ab) / scale).max()))
    return worst


def test_criterion_02_antithetic_coupling_identities():
    v1 = _max_antithetic_violation(
        TestCaseProblem(), Design(np.array([1.5])), PriorProposalFactory(), 10, 2000
    )
    pk = PkProblem()
    v2 = _max_antithetic_violation(
        pk, Design(default_config("pk").xi0), LaplaceProposalFactory(), 11, 2000
    )
    worst = max(v1, v2)
    ok = worst <= 1e-12
    report(2, ok, f"coupling identity worst relative error {worst:.2e} "
                  "over 2x10^4 corrections (tol 1e-12)")
    assert ok


def _closed_form_gradient_fd(xi: float, h: float = 1e-6) -> float:
    return (testcase_eig_closed(xi + h) - testcase_eig_closed(xi - h)) / (2 * h)


@pytest.mark.slow
def test_criterion_03_gradient_estimator_is_unbiased():
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    oracle = _closed_form_gradient_fd(1.5)
    est = unbiased_gradient(
        model, design, 1_000_000, LevelWeights(tau=1.5),
        PriorProposalFactory(), seed=12, threads=4,
    )
    se = np.sqrt(
        max(est.per_sample_sq_norm_mean - est.grad[0] ** 2, 0.0) / est.n_outer
    )
    dev = abs(est.grad[0] - oracle)
    ok = dev <= 3 * se
    report(3, ok, f"debiased gradient {est.grad[0]:+.5f} vs closed form "
                  f"{oracle:+.5f}, |dev| = {dev:.5f} <= 3 SE = {3 * se:.5f}")
    assert ok


def test_criterion_04_single_inner_sample_estimates_upper_bound_gradient():
    # With one inner sample the nested variable targets the Jensen upper
    # bound, whose gradient at 1.5 points the opposite way from the true one.
    model = TestCaseProblem()
    design = Design(np.array([1.5]))
    xi = 1.5
    oracle = xi * np.exp(-(xi**2))  # gradient of g^2 + h^2
    est = unbiased_gradient(
        model, design, 1_000_000, LevelWeights(m0=1, w0_override=1.0),
        PriorProposalFactory(), seed=13, threads=4,
    )
    se = np.sqrt(
        max(est.per_sample_sq_norm_mean - est.grad[0] ** 2, 0.0) / est.n_outer
    )
    dev = abs(est.grad[0] - oracle)
    ok = dev <= 3 * se and est.grad[0] > 0 > _closed_form_gradient_fd(1.5)
    report(4, ok, f"fixed-M=1 gradient {est.grad[0]:+.5f} matches upper-bound "
                  f"slope {oracle:+.5f} (3 SE = {3 * se:.5f}); sign flipped "
                  "vs true gradient")
    assert ok


@pytest.mark.slow
def test_criterion_05_correction_variance_decay():
    model = TestCaseProblem()
    w = LevelWeights(tau=1.5)
    factory = PriorProposalFactory()
    betas = {}
    for label, xi in (("1.5", 1.5), ("optimum", testcase_optimal_design())):
        rep = decay_study(
            model, Design(np.array([xi])), 9, 10_000, w, factory, seed=14,
        )
        betas[label] = rep.beta_hat
    rep_naive = decay_study(
        model, Design(np.array([1.5])), 9, 10_000, w, factory, seed=14,
        antithetic=False,
    )
    in_band = all(1.3 <= b <= 2.0 for b in betas.values())
    margin = betas["1.5"] - rep_naive.beta_hat
    ok = in_band and margin >= 0.3
    report(5, ok, f"decay exponents {betas['1.5']:.2f} / {betas['optimum']:.2f} "
                  f"in [1.3, 2.0]; antithetic beats naive ({rep_naive.beta_hat:.2f}) "
                  f"by {margin:.2f} >= 0.3")
    assert ok


def test_criterion_06_expected_cost_closed_forms():
    c_plain = LevelWeights(m0=1, tau=1.5).expected_cost()
    c_override = LevelWeights(m0=1, tau=1.5, w0_override=0.9).expected_cost()
    ok = round(c_plain, 2) == 2.21 and round(c_override, 2) == 1.34
    report(6, ok, f"expected inner samples per draw: {c_plain:.4f} -> 2.21, "
                  f"{c_override:.4f} -> 1.34")
    assert ok


@pytest.mark.slow
def test_criterion_07_stochastic_ascent_converges():
    model = TestCaseProblem()
    w = LevelWeights(tau=1.5)
    factory = PriorProposalFactory()
    base = Design(np.array([1.5]))
    box = BoxDomain(lower=np.array([1e-8]), upper=np.array([10.0]))
    seed = 2024

    def gradient_fn(t, values):
        est = unbiased_gradient(
            model, base.replace(values), 200, w, factory, seed,
            phase=PHASE_OPTIMIZE, base_index=t,
        )
        return est.grad, est.total_cost

    t_max = 50_000
    trace = optimize(np.array([1.5]), box, gradient_fn, t_max, rm_c=5.0)
    xi_star = testcase_optimal_design()
    err = np.array([(row.polyak[0] - xi_star) ** 2 for row in trace])
    cost = np.array([row.cost_cumulative for row in trace], dtype=float)

    # slope of log squared error against log cumulative cost, fitted over the
    # whole trajectory on window-averaged errors (raw per-step errors dip to
    # zero whenever the averaged iterate crosses the optimum)
    anchors = np.unique(np.geomspace(10, t_max, 25).astype(int))
    xs, ys = [], []
    for t in anchors:
        lo, hi = max(1, int(t / 1.3)), min(t_max, int(t * 1.3))
        xs.append(np.log(cost[t]))
        ys.append(np.log(err[lo : hi + 1].mean()))
    slope = float(np.polyfit(xs, ys, 1)[0])

    ok = err[-1] < 1e-3 and -1.5 <= slope <= -0.7
    report(7, ok, f"final squared error {err[-1]:.2e} < 1e-3; "
                  f"error-vs-cost slope {slope:.2f} in [-1.5, -0.7]")
    assert ok


@pytest.mark.slow
def test_criterion_08_pk_design_improves_information_gain():
    pk = PkProblem()
    w = LevelWeights(tau=1.5, w0_override=0.9)
    factory = LaplaceProposalFactory()
    cfg = default_config("pk")
    base, box = cfg.make_design(), cfg.make_box()
    seed = 321

    def gradient_fn(t, values):
        est = unbiased_gradient(
            pk, base.replace(values), 200, w, factory, seed,
            phase=PHASE_OPTIMIZE, base_index=t,
        )
        return est.grad, est.total_cost

    trace = optimize(
        base.values, box, gradient_fn, 500,
        optimizer="amsgrad", amsgrad_alpha=0.004,
    )
    e0 = eig_nested(pk, base, 3000, 256, factory, seed=77, threads=4)
    eT = eig_nested(
        pk, base.replace(trace[-1].design), 3000, 256, factory, seed=78, threads=4
    )
    gain = eT.value - e0.value
    separated = eT.value - 3 * eT.std_error > e0.value + 3 * e0.std_error
    ok = gain >= 0.3 and separated
    report(8, ok, f"PK EIG {e0.value:.3f} -> {eT.value:.3f} after 500 steps, "
                  f"gain {gain:.3f} >= 0.3 nats, 3-SE intervals disjoint: {separated}")
    assert ok


def test_criterion_09_posterior_fit_exact_on_linear_gaussian():
    rng = np.random.default_rng(15)
    A = rng.normal(size=(7, 3))
    b = rng.normal(size=7)
    prior_mean = np.array([0.2, -0.6, 1.1])
    model = LinearGaussianModel(A, b, noise_var=0.4, prior_mean=prior_mean, prior_var=0.9)
    design = Design(np.arange(1.0, 8.0))
    n = 4
    theta_star = np.tile(prior_mean, (n, 1))
    y = theta_star @ A.T + b + np.sqrt(0.4) * rng.standard_normal((n, 7))
    means, covs, fallback = laplace_fit_batch(model, design, theta_star, y)
    prec = A.T @ A / 0.4 + np.eye(3) / 0.9
    cov_ref = np.linalg.inv(prec)
    worst = 0.0
    for i in range(n):
        mean_ref = cov_ref @ (A.T @ (y[i] - b) / 0.4 + prior_mean / 0.9)
        worst = max(worst, float(np.abs(means[i] - mean_ref).max()))
        worst = max(worst, float(np.abs(covs[i] - cov_ref).max()))
    ok = not fallback.any() and worst <= 1e-10
    report(9, ok, f"conjugate posterior recovered, worst abs error {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_10_outputs_independent_of_thread_count(tmp_path):
    specs = [
        ("decay", ["decay", "--problem", "testcase", "--levels", "4",
                   "--samples-per-level", "300", "--seed", "21"],
         ["decay.csv", "decay.json"]),
        ("optimize", ["optimize", "--problem", "testcase", "--iters", "15",
                      "--n-outer", "600", "--eig-every", "5", "--seed", "22"],
         ["trace.csv", "optimize.json"]),
        ("eig", ["eig", "--problem", "pk", "--n-outer", "600", "--seed", "23"],
         ["eig.json"]),
    ]
    identical = True
    for name, args, files in specs:
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"{name}-{threads}"
            out.mkdir()
            rc = cli_main(args + ["--out", str(out), "--threads", str(threads)])
            assert rc == 0
            outputs.append([(out / f).read_bytes() for f in files])
        identical &= outputs[0] == outputs[1]
    report(10, identical, "decay/optimize/eig outputs byte-identical for "
                          "--threads 1 vs 4 at a fixed seed")
    assert identical
