"""Paired in-process timing of two versions of the package.

    python3 tests/paired_probe.py PARENT_SRC [--pairs N] [--case NAME ...] [--json FILE]

``PARENT_SRC`` is the ``src`` directory of the version to compare against
(a checkout of the parent commit, say).  Its ``mlmc_boed`` tree and this
repository's are copied into a temporary directory under distinct names,
``mlmc_boed_parent`` and ``mlmc_boed_change``, and imported side by side,
so one process times both on the same inputs.  The package imports itself
only relatively, which is what makes the renamed copies work.

Each case calls the two sides alternately, pair by pair, the first side
alternating from pair to pair, with a fresh seed per pair that both sides
share, after five warm-up calls a side (fewer in a shorter run).  It
prints one row per case: the pairs, the median wall time of each side in
ms, their ratio (change over parent) and the pairs in which the change was
faster.  ``--pairs`` sets every case's pairs (each has its own default),
``--case`` picks cases and ``--json`` also writes the rows to a file.  BLAS
runs on one thread.

One process holds both sides, so a change to the whole process reaches
both: the allocator setting that the package makes at import, say, is made
by whichever side is imported, for the two.  Such a change is measured in
separate processes, by ``fault_probe.py`` or by the benchmark.
"""

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
SIDES = ("parent", "change")


def _parts(pkg, problem, **overrides):
    cfg = pkg.default_config(problem).with_overrides(**overrides)
    return (cfg.make_model(), cfg.make_design(), cfg.make_weights(),
            cfg.make_proposal_factory())


def _gradient(problem, n_outer, **overrides):
    def build(pkg):
        model, design, weights, factory = _parts(pkg, problem, **overrides)
        return lambda seed: pkg.unbiased_gradient(model, design, n_outer, weights, factory, seed)
    return build


def _decay(problem, levels, samples, **overrides):
    def build(pkg):
        model, design, weights, factory = _parts(pkg, problem, **overrides)
        return lambda seed: pkg.decay_study(model, design, levels, samples, weights, factory, seed)
    return build


def _nested(problem, n_outer, inner_m, **overrides):
    def build(pkg):
        model, design, _, factory = _parts(pkg, problem, **overrides)
        return lambda seed: pkg.eig_nested(model, design, n_outer, inner_m, factory, seed)
    return build


# name: (default pairs, what it times, builder of a seed -> result call)
CASES = {
    "tc-grad-200": (3000, "testcase unbiased_gradient, n_outer 200 (one chunk)",
                    _gradient("testcase", 200)),
    "tc-grad-2000": (1500, "testcase unbiased_gradient, n_outer 2000",
                     _gradient("testcase", 2000)),
    "pk-grad-2000": (300, "pk + laplace unbiased_gradient, n_outer 2000",
                     _gradient("pk", 2000, proposal="laplace")),
    "tc-decay": (150, "testcase decay_study, 11 levels x 500 samples",
                 _decay("testcase", 11, 500)),
    "pk-decay": (60, "pk + laplace decay_study, 8 levels x 200 samples",
                 _decay("pk", 8, 200, proposal="laplace")),
    "pk-nested": (30, "pk + laplace eig_nested, n_outer 1024, inner M 256",
                  _nested("pk", 1024, 256, proposal="laplace")),
}


def load_sides(parent_src: Path, tmp: Path):
    """The parent's and this repository's packages, imported under distinct names."""
    for side, src in zip(SIDES, (parent_src, SRC)):
        shutil.copytree(src / "mlmc_boed", tmp / f"mlmc_boed_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    return [importlib.import_module(f"mlmc_boed_{side}") for side in SIDES]


def probe(name, packages, pairs):
    """One row: the case, its pairs, both medians in ms, their ratio and
    the pairs the change won."""
    _, what, build = CASES[name]
    calls = [build(pkg) for pkg in packages]
    for seed in range(min(5, pairs)):
        for call in calls:
            call(10**6 + seed)
    times = ([], [])
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            t0 = perf_counter()
            calls[side](pair)
            times[side].append(perf_counter() - t0)
    parent_ms, change_ms = (1e3 * statistics.median(t) for t in times)
    won = sum(c < p for p, c in zip(*times))
    return {"case": name, "what": what, "pairs": pairs, "parent_ms": round(parent_ms, 4),
            "change_ms": round(change_ms, 4), "change_over_parent": round(change_ms / parent_ms, 4),
            "change_faster_pairs": won}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--case", action="append", choices=list(CASES))
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"                     # before numpy loads with the packages
    rows = []
    print(f"{'case':<14}{'pairs':>7}{'parent_ms':>12}{'change_ms':>12}{'ratio':>8}{'won':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.parent_src, Path(tmp))
        for name in args.case or CASES:
            row = probe(name, packages, args.pairs or CASES[name][0])
            rows.append(row)
            print(f"{name:<14}{row['pairs']:>7}{row['parent_ms']:>12.4f}{row['change_ms']:>12.4f}"
                  f"{row['change_over_parent']:>8.4f}{row['change_faster_pairs']:>7}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
