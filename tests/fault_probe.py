"""Page faults and system time of the package, one fresh interpreter a case.

    python3 tests/fault_probe.py [SRC] [--ops N] [--seed S] [--case NAME ...] [--json FILE]

``SRC`` is the ``src`` directory of the version to measure, by default this
repository's.  Each case starts a new interpreter that imports the package
from ``SRC`` alone, builds the case's call, makes its warm-up calls and
then ``--ops`` timed calls (each case has its own default).  Over the timed
calls it reads the process's own minor page faults and system CPU time
(``resource.getrusage``) and each call's wall time.  It prints one row per
case: the calls, minor faults per call, system ms per call and the median
wall ms of a call; ``--json`` also writes the rows to a file.  BLAS runs on
one thread.

Each call has a fresh seed, so the faults also count the heap's growth
when a call draws a deeper level than any before it.  ``--seed S`` makes
every call, warm-up included, the same call at seed ``S``: what is left
are the pages that each call faults in again because the memory of the
call before was handed back to the system.

What the allocator does with freed memory is a setting of the whole
process, so two versions are compared here in separate processes (run the
file once on each ``SRC``), not side by side as in ``paired_probe.py``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# name: (warm-up calls, default timed calls, what it times, the call's code)
# The code builds ``call(seed)`` from the package ``pkg``.
CASES = {
    "tc-grad-2000": (5, 200, "testcase unbiased_gradient, n_outer 2000",
                     "model, design, weights, factory = parts('testcase')\n"
                     "call = lambda seed: pkg.unbiased_gradient(model, design, 2000, weights,"
                     " factory, seed)\n"),
    "pk-grad-2000": (5, 100, "pk (default config) unbiased_gradient, n_outer 2000",
                     "model, design, weights, factory = parts('pk')\n"
                     "call = lambda seed: pkg.unbiased_gradient(model, design, 2000, weights,"
                     " factory, seed)\n"),
    "tc-decay": (2, 20, "testcase decay_study, 11 levels x 500 samples",
                 "model, design, weights, factory = parts('testcase')\n"
                 "call = lambda seed: pkg.decay_study(model, design, 11, 500, weights,"
                 " factory, seed)\n"),
}

CHILD = """\
import json, resource, statistics, sys
from time import perf_counter
sys.path.insert(0, {src!r})
import mlmc_boed as pkg

def parts(problem):
    cfg = pkg.default_config(problem)
    return (cfg.make_model(), cfg.make_design(), cfg.make_weights(),
            cfg.make_proposal_factory())

{build}
for seed in {warmup_seeds}:
    call(seed)
times = []
before = resource.getrusage(resource.RUSAGE_SELF)
for seed in {seeds}:
    t0 = perf_counter()
    call(seed)
    times.append(perf_counter() - t0)
after = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({{"faults": after.ru_minflt - before.ru_minflt,
                  "sys_s": after.ru_stime - before.ru_stime,
                  "median_s": statistics.median(times)}}))
"""


def measure(name, src=SRC, ops=None, seed=None):
    """One row: the case, its calls, and per timed call the minor faults,
    the system ms and the median wall ms, from a fresh interpreter.  Calls
    have fresh seeds, or all the one ``seed``."""
    warmup, default_ops, what, build = CASES[name]
    ops = ops or default_ops
    if seed is None:
        warmup_seeds, seeds = range(10**6, 10**6 + warmup), range(ops)
    else:
        warmup_seeds, seeds = [seed] * warmup, [seed] * ops
    code = CHILD.format(src=str(Path(src).resolve()), build=build,
                        warmup_seeds=list(warmup_seeds), seeds=list(seeds))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=600)
    got = json.loads(run.stdout)
    return {"case": name, "what": what, "warmup": warmup, "ops": ops, "seed": seed,
            "faults_per_op": round(got["faults"] / ops, 4),
            "sys_ms_per_op": round(1e3 * got["sys_s"] / ops, 4),
            "median_ms": round(1e3 * got["median_s"], 4)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, nargs="?", default=SRC)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--case", action="append", choices=list(CASES))
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    rows = []
    print(f"{'case':<14}{'ops':>6}{'faults_per_op':>15}{'sys_ms_per_op':>15}{'median_ms':>12}")
    for name in args.case or CASES:
        row = measure(name, args.src, args.ops, args.seed)
        rows.append(row)
        print(f"{name:<14}{row['ops']:>6}{row['faults_per_op']:>15.4f}"
              f"{row['sys_ms_per_op']:>15.4f}{row['median_ms']:>12.4f}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
