"""The benchmark's workloads, driven through the library API the way
``mlmc_boed.cli`` drives it.

A workload repeats *units* in a closed loop with one caller: one ascent
(``optimize``) or one decay pass (``decay``).  The third CLI subcommand,
``eig``, has a unit too, which only the CLI mirror check runs.  Every unit
gets its own master seed, derived from the benchmark seed, so a unit is
exactly what ``mlmc-boed <command> --seed <unit seed>`` computes
with the workload's configuration; the CLI mirror check in ``run.py`` holds
the benchmark to that.  An *operation* is the timed step inside a unit: one
ascent step (gradient estimate plus optimizer step) or one decay pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from mlmc_boed import decay, eig, gradient, optim
from mlmc_boed.config import RunConfig, default_config
from mlmc_boed.decay import DecayRow, fit_beta
from mlmc_boed.eig import testcase_eig_closed, testcase_optimal_design
from mlmc_boed.rng import PHASE_OPTIMIZE, chunk_sizes

# Every unit runs single-threaded: the closed loop has one caller.  run.py
# compares 1 and 2 threads separately, in the traced run.
THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # the CLI subcommand one unit reproduces
    problem: str
    overrides: dict   # RunConfig fields on top of default_config(problem)
    trace_units: int  # fixed unit count of the traced run, so layer times compare
    mirror: dict      # overrides that shrink one unit for the CLI mirror check

    def config(self, seed: int, **extra) -> RunConfig:
        cfg = default_config(self.problem).with_overrides(**self.overrides, seed=seed)
        return cfg.with_overrides(**extra)


# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "tc-ascent", "optimize", "testcase",
            dict(max_iters=50, eig_every=50), 9,
            dict(max_iters=4, eig_every=4, n_outer=600),
        ),
        Workload(
            "pk-ascent", "optimize", "pk",
            dict(max_iters=20, eig_every=20), 2,
            dict(max_iters=2, eig_every=2, n_outer=600),
        ),
        Workload(
            "tc-decay", "decay", "testcase",
            dict(levels=11, samples_per_level=500), 10,
            dict(levels=4, samples_per_level=300),
        ),
    )
}


# The CLI subcommand no workload drives, at a small size: the score-free PK
# likelihood in the nested estimator.  Every run mirrors it (see run.py).
EIG_MIRROR = ("pk", dict(estimator="stdmc", inner_m=256, n_outer=64))


def mirror_configs(wl: Workload, seed: int) -> dict[str, RunConfig]:
    """A small config per CLI subcommand; the workload's own uses its config."""
    mirrors = {other.command: other for other in WORKLOADS.values()}
    mirrors[wl.command] = wl
    cfgs = {cmd: w.config(seed, **w.mirror) for cmd, w in mirrors.items()}
    problem, overrides = EIG_MIRROR
    cfgs["eig"] = default_config(problem).with_overrides(**overrides, seed=seed)
    return cfgs


def unit_seed(seed: int, k: int) -> int:
    """Master seed of unit ``k`` of a run with benchmark seed ``seed``."""
    return seed * 100_000 + k


class Parts(NamedTuple):
    """What a CLI command builds from its config before any estimate."""

    model: object
    base: object
    box: object
    weights: object
    factory: object


def build_parts(cfg: RunConfig) -> Parts:
    return Parts(cfg.make_model(), cfg.make_design(), cfg.make_box(),
                 cfg.make_weights(), cfg.make_proposal_factory())


@dataclass
class Api:
    """Library entry points a unit calls; the traced run swaps in timed ones."""

    unbiased_gradient: Callable = gradient.unbiased_gradient
    eig_nested: Callable = eig.eig_nested
    eig_unbiased_mlmc: Callable = eig.eig_unbiased_mlmc
    decay_study: Callable = decay.decay_study
    optimize: Callable = optim.optimize
    hook: Callable = lambda name, fn: fn  # wraps the benchmark's own callbacks


@dataclass
class Unit:
    summary: dict | None = None   # the CLI command's summary JSON, minus "csv"
    fingerprint: str = ""         # every estimate, to compare runs bit for bit
    op_s: list = field(default_factory=list)   # seconds per timed operation
    inner_evals: int = 0  # inner-sample evaluations the estimators counted
    attempted: int = 0
    failed: int = 0
    eigs: list = field(default_factory=list)        # EigEstimate per evaluation
    grad_moments: list = field(default_factory=list)  # (sq_norm_mean, n, cost)
    rows: list = field(default_factory=list)        # DecayRow per level


def eig_at(cfg, parts, api, design, threads=THREADS, base_index=0):
    if cfg.estimator == "stdmc":
        return api.eig_nested(
            parts.model, design, cfg.eig_n_outer, cfg.inner_m, parts.factory,
            cfg.seed, threads=threads, base_index=base_index,
        )
    return api.eig_unbiased_mlmc(
        parts.model, design, cfg.eig_n_outer, parts.weights, parts.factory,
        cfg.seed, threads=threads, base_index=base_index,
    )


def _ascent_unit(cfg, parts, api) -> Unit:
    """``mlmc-boed optimize``: the ascent, then EIG at its evaluation points."""
    unit = Unit()
    chunks_per_iter = len(chunk_sizes(cfg.n_outer))

    def gradient_fn(t, values):
        unit.attempted += 1
        try:
            est = api.unbiased_gradient(
                parts.model, parts.base.replace(values), cfg.n_outer,
                parts.weights, parts.factory, cfg.seed, threads=THREADS,
                phase=PHASE_OPTIMIZE, base_index=t * chunks_per_iter,
                antithetic=(cfg.estimator == "mlmc"),
            )
        except Exception:  # counted as a failed operation; the ascent goes on
            unit.failed += 1
            return np.zeros(parts.base.dim), 0
        if not np.all(np.isfinite(est.grad)):
            unit.failed += 1
            return np.zeros(parts.base.dim), est.total_cost
        unit.inner_evals += est.total_cost
        unit.grad_moments.append((est.per_sample_sq_norm_mean, est.n_outer, est.total_cost))
        return est.grad, est.total_cost

    stamps = []
    trace = api.optimize(
        parts.base.values, parts.box, api.hook("bench.gradient_fn", gradient_fn),
        cfg.max_iters, optimizer=cfg.optimizer, rm_c=cfg.rm_c,
        amsgrad_alpha=cfg.amsgrad_alpha, amsgrad_beta1=cfg.amsgrad_beta1,
        amsgrad_beta2=cfg.amsgrad_beta2, polyak=cfg.polyak,
        on_iteration=api.hook("bench.on_iteration", lambda row: stamps.append(perf_counter())),
    )
    unit.op_s = list(np.diff(stamps))

    eig_chunks = len(chunk_sizes(cfg.eig_n_outer))
    points = sorted({row.t for row in trace if row.t % cfg.eig_every == 0} | {trace[-1].t})
    for k, t in enumerate(points):
        unit.attempted += 1
        try:
            est = eig_at(cfg, parts, api, parts.base.replace(trace[t].polyak),
                         base_index=k * eig_chunks)
        except Exception:  # counted as a failed operation; the unit is incomplete
            unit.failed += 1
            return unit
        unit.eigs.append(est)
        unit.inner_evals += est.total_inner_cost
    final = trace[-1]
    unit.summary = {
        "final_design": [float(v) for v in final.design],
        "polyak_average": [float(v) for v in final.polyak],
        "total_cost": final.cost_cumulative,
        "iterations": cfg.max_iters,
        "final_eig": unit.eigs[-1].value,
    }
    unit.fingerprint = json.dumps([
        unit.summary,
        [[r.t, r.design.tolist(), r.polyak.tolist(), r.cost_cumulative, r.grad_norm]
         for r in trace],
        [[e.value, e.std_error, e.total_inner_cost] for e in unit.eigs],
    ])
    return unit


def _eig_unit(cfg, parts, api) -> Unit:
    """``mlmc-boed eig``: one EIG evaluation at the configured design.

    No workload repeats it; the CLI mirror check in ``run.py`` runs it once.
    """
    est = eig_at(cfg.with_overrides(eig_n_outer=cfg.n_outer), parts, api, parts.base)
    return Unit(summary={
        "design": [float(v) for v in parts.base.values],
        "eig": est.value,
        "std_error": est.std_error,
        "n_outer": est.n_outer,
        "total_inner_cost": est.total_inner_cost,
    })


def _decay_unit(cfg, parts, api) -> Unit:
    """``mlmc-boed decay``: per-level mean squares over levels 0..levels-1."""
    unit = Unit(attempted=1)
    t0 = perf_counter()
    try:
        report = api.decay_study(
            parts.model, parts.base, cfg.levels, cfg.samples_per_level,
            parts.weights, parts.factory, cfg.seed,
            antithetic=(cfg.estimator != "mlmc-naive"),
        )
    except Exception:  # counted as a failed operation; the run goes on
        unit.failed = 1
        return unit
    unit.op_s.append(perf_counter() - t0)
    moments = [v for r in report.rows for v in (r.mean_sq_psi, r.mean_sq_delta)]
    if not np.all(np.isfinite(moments)):
        unit.failed = 1
        return unit
    unit.inner_evals = sum(
        r.n_samples * int(parts.weights.inner_samples(r.level)) for r in report.rows
    )
    unit.rows = report.rows
    unit.summary = {
        "beta_hat": report.beta_hat,
        "fit_range": list(report.fit_range),
        "reliable": report.reliable,
        "levels": cfg.levels,
        "samples_per_level": cfg.samples_per_level,
    }
    unit.fingerprint = json.dumps([
        unit.summary,
        [[r.level, r.mean_sq_psi, r.mean_sq_delta, r.n_samples] for r in report.rows],
    ])
    return unit


UNIT_RUNNERS = {"optimize": _ascent_unit, "eig": _eig_unit, "decay": _decay_unit}


def run_unit(command: str, cfg: RunConfig, parts: Parts, api: Api) -> Unit:
    return UNIT_RUNNERS[command](cfg, parts, api)


def warm_up(wl: Workload, cfg: RunConfig, parts: Parts) -> None:
    """One untimed operation, so lazy imports and first-touch allocations settle."""
    if wl.command == "optimize":
        gradient.unbiased_gradient(
            parts.model, parts.base, cfg.n_outer, parts.weights, parts.factory,
            cfg.seed, threads=THREADS, phase=PHASE_OPTIMIZE,
        )
    else:
        run_unit(wl.command, cfg, parts, Api())


# ---------------------------------------------------------------------------
# statistics pooled over a run's units


def pool_decay(units: list[Unit]) -> list[DecayRow]:
    """Per-level moments pooled over every decay pass of the run."""
    levels = {}
    for unit in units:
        for r in unit.rows:
            psi, delta, n = levels.get(r.level, (0.0, 0.0, 0))
            levels[r.level] = (psi + r.mean_sq_psi * r.n_samples,
                               delta + r.mean_sq_delta * r.n_samples, n + r.n_samples)
    return [DecayRow(lvl, psi / n, delta / n, n)
            for lvl, (psi, delta, n) in sorted(levels.items())]


def outcome(wl: Workload, units: list[Unit], weights) -> dict:
    """The run's statistical results: final EIG, cost x variance, beta_hat."""
    done = [u for u in units if u.summary is not None]
    out = {}
    if not done:
        return out
    if wl.command == "optimize":
        out["final_eig_nats"] = float(np.mean([u.eigs[-1].value for u in done]))
        moments = [g for u in done for g in u.grad_moments]
        sq = sum(m * n for m, n, _ in moments)
        n = sum(g[1] for g in moments)
        cost = sum(g[2] for g in moments)
        # second moment per outer sample times inner cost per outer sample
        out["gradient.sq_norm_x_cost"] = sq / n * cost / n
        out["levels.cost_ratio"] = cost / (n * weights.expected_cost())
    else:
        rows = pool_decay(done)
        out["decay.beta_hat"] = fit_beta(rows, (1, len(rows) - 1))
        out["cost_variance"] = weights.expected_cost() * sum(
            r.mean_sq_delta / float(weights.weight(r.level)) for r in rows
        )
    return out


# ---------------------------------------------------------------------------
# correctness checks

# tc-ascent: over a run's 50-step ascents, the median distance of the final
# Polyak iterate from the optimizer sqrt(log 3) = 1.048 is at most
# TC_DESIGN_TOL.  60 seeds: 52 within 0.25, the rest up to 0.99 (a first
# Robbins-Monro step of size 5 can throw the iterate far right, where the
# gradient vanishes).  An ascent that never moves stays 0.452 away.
TC_DESIGN_TOL = 0.4
# tc-ascent: the mean over units of (estimated - closed-form EIG at the final
# iterate) is within this many standard errors of that mean.
EIG_SE_K = 4.0
# pk-ascent: the mean over units of (final - initial EIG) is not below zero
# by more than this many standard errors of that mean.
PK_EIG_SE_K = 3.0
# tc-decay: beta_hat pooled over a run's passes (levels 1..10).  Seeds
# measured 1.59-1.72 at 10,000 samples per level.
BETA_BAND = (1.45, 1.95)


def check(wl: Workload, units: list[Unit], result: dict) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every correctness check of the workload."""
    done = [u for u in units if u.summary is not None]
    checks = [("units_completed", len(done) == len(units) and bool(done),
               f"{len(done)}/{len(units)}")]
    numbers = [v for u in done for v in _numbers(u.summary)] + list(result.values())
    checks.append(("outputs_finite", bool(np.all(np.isfinite(numbers))), f"{len(numbers)} values"))
    if wl.name == "tc-ascent" and done:
        xis = [u.summary["polyak_average"][0] for u in done]
        dev = float(np.median(np.abs(np.subtract(xis, testcase_optimal_design()))))
        checks.append(("design_near_optimum", dev <= TC_DESIGN_TOL,
                       f"median |xi - xi*| = {dev:.4f} over {len(xis)} ascents"))
        diff, se = _mean_and_se(
            [u.eigs[-1].value - testcase_eig_closed(xi) for u, xi in zip(done, xis)],
            [u.eigs[-1].std_error for u in done])
        checks.append(("eig_matches_closed_form", abs(diff) <= EIG_SE_K * se,
                       f"mean estimate - closed form = {diff:.4f} (se {se:.4f})"))
    elif wl.name == "pk-ascent" and done:
        diff, se = _mean_and_se(
            [u.eigs[-1].value - u.eigs[0].value for u in done],
            [np.hypot(u.eigs[-1].std_error, u.eigs[0].std_error) for u in done])
        checks.append(("eig_not_worse_than_initial", diff >= -PK_EIG_SE_K * se,
                       f"mean final - initial EIG = {diff:.4f} (se {se:.4f})"))
    elif wl.name == "tc-decay" and done:
        beta = result["decay.beta_hat"]
        checks.append(("beta_hat_in_band", BETA_BAND[0] <= beta <= BETA_BAND[1],
                       f"{beta:.4f} in {BETA_BAND}"))
    return [(name, bool(ok), detail) for name, ok, detail in checks]


def _mean_and_se(values, std_errors):
    """Mean of independent estimates and the standard error of that mean."""
    n = len(values)
    return float(np.mean(values)), float(np.sqrt(np.sum(np.square(std_errors)))) / n


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [float(value)] if isinstance(value, (int, float)) else []
