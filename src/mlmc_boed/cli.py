"""Command-line front end.

Three subcommands drive the library:

* ``decay``     -- per-level mean-square diagnostics and the fitted decay
  exponent beta_hat (CSV + summary JSON).
* ``optimize``  -- projected stochastic gradient ascent on the expected
  information gain, tracing iterates, realized cost and periodic EIG
  evaluations (CSV + summary JSON).
* ``eig``       -- a single EIG evaluation at a fixed design (JSON).

Configuration lives in one JSON document (``--config PATH``); individual
flags override single fields.  All outputs are UTF-8 with '.' decimals and
are byte-identical for a fixed seed regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ESTIMATORS, OPTIMIZERS, PROBLEMS, PROPOSALS, RunConfig, default_config
from .decay import check_study, decay_study
from .eig import eig_unbiased_mlmc
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DomainError,
    NumericalDomainError,
)
from .gradient import unbiased_gradient
from .optim import optimize
from .rng import PHASE_OPTIMIZE, chunk_sizes

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130       # 128 + SIGINT, as a shell reports it

# The estimators each subcommand runs; decay has no fixed-M form and eig no
# naive coupling, so either setting would be silently replaced.
ACCEPTED_ESTIMATORS = {"decay": ("mlmc", "mlmc-naive"), "optimize": ESTIMATORS,
                       "eig": ("stdmc", "mlmc")}
# Flags that an estimator never reads; given on the command line, they would
# change nothing.
UNREAD_FLAGS = {"stdmc": ("tau", "m0", "w0"), "mlmc": ("inner_m",),
                "mlmc-naive": ("inner_m",)}


def _fmt(x) -> str:
    """Full-precision, locale-independent decimal rendering."""
    return repr(float(x))


def _parse_floats(text: str) -> list[float]:
    """The numbers of a comma-separated list; an empty item is an error, and
    an empty text the empty list."""
    try:
        return [float(v) for v in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors become configuration errors, which ``main`` reports as JSON."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlmc-boed",
        description="Gradient-based Bayesian experimental design via "
        "debiased multilevel Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decay", "estimate per-level correction mean squares and beta_hat"),
        ("optimize", "run stochastic gradient ascent on the EIG"),
        ("eig", "evaluate the EIG at a fixed design"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config document")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1; more pay only on wide "
                       "inner batches, e.g. a nested eig at inner M 256)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV/JSON artifacts")
        # Each subcommand takes only the flags it reads.
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--estimator", choices=ESTIMATORS)
        p.add_argument("--m0", type=int)
        p.add_argument("--proposal", choices=PROPOSALS)
        p.add_argument("--xi0", type=_parse_floats,
                       help="initial design, comma-separated")
        if name == "decay":
            p.add_argument("--levels", type=int)
            p.add_argument("--samples-per-level", type=int, dest="samples_per_level")
            continue
        p.add_argument("--inner-m", type=int, dest="inner_m")
        p.add_argument("--tau", type=float)
        p.add_argument("--w0", type=float)
        p.add_argument("--n-outer", type=int, dest="n_outer")
        if name == "optimize":
            p.add_argument("--optimizer", choices=OPTIMIZERS)
            p.add_argument("--lr", type=float,
                           help="step-size constant (RM c, or AMSGrad alpha)")
            p.add_argument("--iters", type=int, dest="max_iters")
            p.add_argument("--eig-every", type=int, dest="eig_every")
    return parser


def load_config(args) -> RunConfig:
    if args.config is not None:
        cfg = RunConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        if args.problem is not None and args.problem != cfg.problem:
            raise ConfigurationError(f"--problem {args.problem!r} differs from the "
                                     f"config document's problem {cfg.problem!r}")
    else:
        cfg = default_config(args.problem or "testcase")
    overrides = {name: value for name, value in vars(args).items()
                 if name in RunConfig.__dataclass_fields__}
    if getattr(args, "lr", None) is not None:
        key = "rm_c" if (overrides.get("optimizer") or cfg.optimizer) == "rm" \
            else "amsgrad_alpha"
        overrides[key] = args.lr
    return cfg.with_overrides(**overrides)


def _eig_at(cfg: RunConfig, model, design, n_outer: int, threads: int, base_index: int = 0):
    return eig_unbiased_mlmc(
        model, design, n_outer, cfg.make_weights(), cfg.make_proposal_factory(), cfg.seed,
        threads=threads, base_index=base_index,
    )


def _write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.name


# ---------------------------------------------------------------------------
# subcommands


def cmd_decay(cfg: RunConfig, out_dir: Path, threads: int) -> dict:
    model = cfg.make_model()
    design = cfg.make_design()
    report = decay_study(
        model, design, cfg.levels, cfg.samples_per_level, cfg.make_weights(),
        cfg.make_proposal_factory(), cfg.seed,
        antithetic=(cfg.estimator != "mlmc-naive"), threads=threads,
    )
    csv_name = _write_csv(
        out_dir / "decay.csv", ["level", "mean_sq_psi", "mean_sq_delta", "n"],
        ([row.level, _fmt(row.mean_sq_psi), _fmt(row.mean_sq_delta), row.n_samples]
         for row in report.rows),
    )
    return {
        # JSON has no NaN: an undefined fit is written as null.
        "beta_hat": report.beta_hat if np.isfinite(report.beta_hat) else None,
        "fit_range": list(report.fit_range),
        "reliable": report.reliable,
        "levels": cfg.levels,
        "samples_per_level": cfg.samples_per_level,
        "csv": csv_name,
    }


def cmd_optimize(cfg: RunConfig, out_dir: Path, threads: int) -> dict:
    model = cfg.make_model()
    base = cfg.make_design()
    box = cfg.make_box()
    weights = cfg.make_weights()
    factory = cfg.make_proposal_factory()
    chunks_per_iter = len(chunk_sizes(cfg.n_outer))

    def gradient_fn(t: int, values: np.ndarray):
        design = base.replace(values)
        est = unbiased_gradient(
            model, design, cfg.n_outer, weights, factory, cfg.seed,
            threads=threads, phase=PHASE_OPTIMIZE,
            base_index=t * chunks_per_iter,
            antithetic=(cfg.estimator != "mlmc-naive"),
        )
        return est.grad, est.total_cost

    trace = optimize(
        base.values, box, gradient_fn, cfg.max_iters,
        optimizer=cfg.optimizer,
        rm_c=cfg.rm_c,
        amsgrad_alpha=cfg.amsgrad_alpha,
        amsgrad_beta1=cfg.amsgrad_beta1,
        amsgrad_beta2=cfg.amsgrad_beta2,
        polyak=cfg.polyak,
    )

    # Periodic EIG evaluations on the Polyak/raw iterate, on disjoint
    # sub-streams indexed by evaluation order.
    eig_chunks = len(chunk_sizes(cfg.eig_n_outer))
    eig_values: dict[int, float] = {}
    eval_points = sorted(
        {row.t for row in trace if row.t % cfg.eig_every == 0} | {trace[-1].t}
    )
    for k, t in enumerate(eval_points):
        design_t = base.replace(trace[t].polyak)
        est = _eig_at(cfg, model, design_t, cfg.eig_n_outer, threads,
                      base_index=k * eig_chunks)
        eig_values[t] = est.value

    d = base.dim
    csv_name = _write_csv(
        out_dir / "trace.csv",
        (["t", "cost_cumulative"]
         + [f"design_{j + 1}" for j in range(d)]
         + [f"polyak_{j + 1}" for j in range(d)]
         + ["grad_norm", "eig_periodic"]),
        ([row.t, row.cost_cumulative]
         + [_fmt(v) for v in row.design]
         + [_fmt(v) for v in row.polyak]
         + [_fmt(row.grad_norm) if np.isfinite(row.grad_norm) else "",
            _fmt(eig_values[row.t]) if row.t in eig_values else ""]
         for row in trace),
    )
    final = trace[-1]
    return {
        "final_design": [float(v) for v in final.design],
        "polyak_average": [float(v) for v in final.polyak],
        "total_cost": final.cost_cumulative,
        "iterations": cfg.max_iters,
        "final_eig": eig_values[final.t],
        "csv": csv_name,
    }


def cmd_eig(cfg: RunConfig, out_dir: Path, threads: int) -> dict:
    model = cfg.make_model()
    design = cfg.make_design()
    est = _eig_at(cfg, model, design, cfg.n_outer, threads)
    return {
        "design": [float(v) for v in design.values],
        "eig": est.value,
        "std_error": est.std_error,
        "n_outer": est.n_outer,
        "total_inner_cost": est.total_inner_cost,
    }


# ---------------------------------------------------------------------------
# entry point

_CATEGORY = {
    ConfigurationError: "configuration",
    ContractViolationError: "contract",
    NumericalDomainError: "numerical",
    DomainError: "domain",
}


def _headline(command: str, summary: dict) -> str | None:
    """The line printed before the summary JSON, if the command has one."""
    if command != "decay":
        return None
    lo, hi = summary["fit_range"]
    beta = np.nan if summary["beta_hat"] is None else summary["beta_hat"]
    return (f"beta_hat = {beta:.4f} (fit over levels {lo}..{hi}"
            f"{'' if summary['reliable'] else ', UNRELIABLE: too few samples'})")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigurationError("--threads must be at least 1")
        cfg = load_config(args)
        accepted = ACCEPTED_ESTIMATORS[args.command]
        if cfg.estimator not in accepted:
            raise ConfigurationError(f"{args.command} runs the estimators "
                                     f"{', '.join(accepted)}, not {cfg.estimator!r}")
        unread = [f"--{name.replace('_', '-')}" for name in UNREAD_FLAGS[cfg.estimator]
                  if getattr(args, name, None) is not None]
        if unread:
            raise ConfigurationError(f"the estimator {cfg.estimator!r} does not read "
                                     f"{', '.join(unread)}")
        if args.command == "decay":
            check_study(cfg.levels, cfg.samples_per_level, cfg.m0)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(json.dumps({"error": "configuration", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG

    handler = {"decay": cmd_decay, "optimize": cmd_optimize, "eig": cmd_eig}[args.command]
    try:
        summary = handler(cfg, out_dir, args.threads)
        (out_dir / f"{args.command}.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        headline = _headline(args.command, summary)
        if headline is not None:
            print(headline)
        print(json.dumps(summary, sort_keys=True))
    except BrokenPipeError:
        # The reader closed standard output after every --out file was
        # written.  Point the descriptor at devnull, so that the flush at
        # interpreter exit does not fail again.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except KeyboardInterrupt:
        # Ctrl-C: no summary is written, and no traceback reaches the terminal.
        print(json.dumps({"error": "interrupted", "message": "stopped before the end"}),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        category = "internal"
        for klass, name in _CATEGORY.items():
            if isinstance(exc, klass):
                category = name
                break
        print(json.dumps({"error": category, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG if category == "configuration" else EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
