"""Benchmark of the mlmc-boed library on fixed-seed workloads.

Run from the repository root:

    python3 bench/run.py --workload tc-ascent --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time from a fresh
interpreter, operation latency (median and 90th percentile), inner-sample
evaluations per second and peak resident memory.  ``--trace 1`` runs a fixed
slice of the workload twice, untraced and then with a span around every
layer's entry points, and reports the per-layer metrics; its estimates must
equal the untraced ones bit for bit.  Both modes check the outputs for
correctness, including a mirror check that ``mlmc_boed.cli.main`` writes, for
each subcommand, the same summary as the benchmark's own library-driven unit.

Report lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) list of BENCHMARK.json.
The benchmark exits with status 2, printing no result, if the package source
or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set before numpy loads, so that ``threads`` is the only parallelism.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15
# Measured by every --trace 0 run.  iter_ms_p50 is printed but not gated in
# BENCHMARK.json: the host's bimodal speed states make it the least steady.
END_TO_END_UNITS = {"setup_s": "s", "inner_evals_per_s": "1/s", "iter_ms_p50": "ms",
                    "iter_ms_p90": "ms"}
SETUP_TIMEOUT_S = 60
SPEEDUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mlmc_boed" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: needs {SRC / 'mlmc_boed'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    report("machine", machine_info(workloads.THREADS))

    cfg0 = wl.config(workloads.unit_seed(args.seed, 0))
    parts = workloads.build_parts(cfg0)
    workloads.warm_up(wl, wl.config(workloads.unit_seed(args.seed, 99_999)), parts)

    if args.trace:
        metrics, units, checks = traced_run(wl, args.seed, parts)
        wanted = spec["per_layer"]
        shown = {m["name"]: m["unit"] for m in wanted}
    else:
        metrics, units, checks = measured_run(wl, args.seed, args.seconds, parts)
        wanted = spec["end_to_end"]
        shown = END_TO_END_UNITS
    checks += mirror_checks(wl, args.seed)

    counts = static_counts()
    report("static", counts)
    metrics.update({name: (value, 1) for name, value in counts.items()})
    for name, unit in shown.items():
        value, samples = metrics[name]
        report("metric", {"name": name, "value": value, "unit": unit, "samples": samples})
    for name, ok, detail in checks:
        report("check", {"name": name, "ok": ok, "detail": detail})
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def report(kind: str, payload) -> None:
    print(f"{kind}: {json.dumps(payload)}", flush=True)


def machine_info(threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pinned_env": {k: os.environ[k] for k in PINNED_ENV},
    }


def probe_setup(wl, seed: int) -> tuple[float, dict]:
    """Wall time from process start until set-up is done, in a fresh interpreter."""
    overrides = dict(wl.overrides, seed=seed)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.problem,
           json.dumps(overrides)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return wall, json.loads(line)


def measured_run(wl, seed, seconds, parts):
    """Closed loop of units for ``seconds`` of unit time; end-to-end metrics.

    The set-up probes run between units, spread evenly over the loop, so
    that their median sees the same machine as the loop does.  Probe time
    is not loop time.
    """
    import numpy as np
    import workloads

    units, setup, elapsed = [], [], 0.0
    while True:
        while len(setup) < SETUP_REPEATS and len(setup) * seconds <= elapsed * SETUP_REPEATS:
            setup.append(probe_setup(wl, seed))
        if units and elapsed + 0.5 * elapsed / len(units) >= seconds:
            break
        cfg = wl.config(workloads.unit_seed(seed, len(units)))
        t0 = perf_counter()
        units.append(workloads.run_unit(wl.command, cfg, parts, workloads.Api()))
        elapsed += perf_counter() - t0
    while len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(wl, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [t for u in units for t in u.op_s]
    p50, p90 = np.percentile(ops, [50, 90]) * 1e3
    evals = sum(u.inner_evals for u in units)
    metrics = {
        "setup_s": (statistics.median(w for w, _ in setup), len(setup)),
        "inner_evals_per_s": (evals / elapsed, evals),
        "iter_ms_p50": (p50, len(ops)),
        "iter_ms_p90": (p90, len(ops)),
    }
    result = workloads.outcome(wl, units, parts.weights)
    attempted = sum(u.attempted for u in units)
    result["fail_rate"] = sum(u.failed for u in units) / attempted
    result["peak_rss_mb"] = peak_rss_mb
    report("outcome", {"workload": wl.name, "units": len(units), "operations": attempted,
                       "seconds": elapsed, **result})
    return metrics, units, workloads.check(wl, units, result)


def traced_run(wl, seed, parts):
    """The same fixed slice untraced and traced; per-layer metrics."""
    import tracing
    import workloads

    setup = [probe_setup(wl, seed) for _ in range(SETUP_REPEATS)]
    cfgs = [wl.config(workloads.unit_seed(seed, k)) for k in range(wl.trace_units)]
    # Units run single-threaded (workloads.THREADS), so spans nest on one
    # stack and the overhead share compares like with like.
    t0 = perf_counter()
    plain = [workloads.run_unit(wl.command, c, parts, workloads.Api()) for c in cfgs]
    plain_s = perf_counter() - t0

    rec = tracing.Recorder()
    tparts = tracing.traced_parts(parts, rec)
    api = tracing.traced_api(rec)
    with tracing.traced_streams(rec):
        t0 = perf_counter()
        traced = [workloads.run_unit(wl.command, c, tparts, api) for c in cfgs]
        traced_s = perf_counter() - t0

    steps = sum(len(u.op_s) for u in traced) if wl.command == "optimize" else 0
    layers = tracing.layer_metrics(rec, traced_s, steps)
    layers["trace.overhead_share"] = traced_s / plain_s
    layers["cli.import_s"] = statistics.median(p["import_s"] for _, p in setup)
    layers["cli.scipy_import_s"] = statistics.median(p["scipy_import_s"] for _, p in setup)
    layers["config.build_s"] = statistics.median(p["build_s"] for _, p in setup)
    layers["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = [("trace_reproduces_untraced",
               all(a.fingerprint == b.fingerprint for a, b in zip(plain, traced)),
               f"{len(cfgs)} units")]
    speedups, identical = thread_speedups(wl, cfgs[0], parts)
    layers.update(speedups)
    if speedups:
        checks.append(("threads_1_and_2_identical", identical, "determinism contract"))
    outcome = workloads.outcome(wl, plain, parts.weights)
    layers.update(outcome)
    report("layers", {"workload": wl.name, "units": len(cfgs), "untraced_s": plain_s,
                      "traced_s": traced_s, **layers})
    report("spans", tracing.span_table(rec))
    checks += workloads.check(wl, plain, outcome)
    return {k: (v, len(cfgs)) for k, v in layers.items()}, plain + traced, checks


def thread_speedups(wl, cfg, parts) -> tuple[dict, bool]:
    """1-thread over 2-thread time of an ascent's gradient and EIG estimators.

    Also returns whether both thread counts gave identical results.  The
    decay study has no thread count, and one CPU gives nothing to compare.
    """
    import workloads
    from mlmc_boed.gradient import unbiased_gradient
    from mlmc_boed.rng import PHASE_OPTIMIZE

    if len(os.sched_getaffinity(0)) < 2 or wl.command != "optimize":
        return {}, True

    def eig_estimate(threads):
        est = workloads.eig_at(cfg, parts, workloads.Api(), parts.base, threads)
        return est.value, est.std_error

    def gradient_estimate(threads):
        est = unbiased_gradient(parts.model, parts.base, cfg.n_outer, parts.weights,
                                parts.factory, cfg.seed, threads=threads,
                                phase=PHASE_OPTIMIZE, antithetic=(cfg.estimator == "mlmc"))
        return tuple(est.grad)

    calls = {"eig.speedup_2v1": eig_estimate, "gradient.speedup_2v1": gradient_estimate}
    speedups, identical = {}, True
    for name, fn in calls.items():
        times, results = {1: [], 2: []}, {}
        for _ in range(SPEEDUP_REPEATS):
            for threads in (1, 2):
                t0 = perf_counter()
                results[threads] = fn(threads)
                times[threads].append(perf_counter() - t0)
        speedups[name] = statistics.median(times[1]) / statistics.median(times[2])
        identical = identical and results[1] == results[2]
    return speedups, identical


def mirror_checks(wl, seed) -> list[tuple[str, bool, str]]:
    """``mlmc_boed.cli.main`` writes the same summary as the benchmark's unit.

    One check per CLI subcommand, each at a small size.
    """
    import workloads

    return [mirror_check(command, cfg)
            for command, cfg in workloads.mirror_configs(wl, workloads.unit_seed(seed, 0)).items()]


def mirror_check(command, cfg):
    import workloads
    from mlmc_boed import cli

    name = f"cli_mirror.{command}"
    try:
        unit = workloads.run_unit(command, cfg, workloads.build_parts(cfg), workloads.Api())
    except Exception as exc:  # a failed check, reported like any other
        return name, False, f"benchmark unit raised {exc!r}"
    out = OUT / f"mirror-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        (out / "config.json").write_text(cfg.to_json(), encoding="utf-8")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([command, "--config", str(out / "config.json"),
                             "--threads", str(workloads.THREADS), "--out", str(out)])
        if code != 0:
            return name, False, f"exit {code}: {sink.getvalue()[-300:]}"
        summary = json.loads((out / f"{command}.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    summary.pop("csv", None)
    ok = summary == json.loads(json.dumps(unit.summary))
    return name, ok, f"mlmc-boed {command} ({cfg.problem}) {'matches' if ok else 'differs'}"


def static_counts() -> dict:
    import mlmc_boed

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (SRC / "mlmc_boed").glob("*.py"))
    return {"package.source_lines": lines, "package.exported_names": len(mlmc_boed.__all__)}


if __name__ == "__main__":
    sys.exit(main())
