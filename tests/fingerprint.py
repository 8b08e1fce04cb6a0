"""One SHA-256 over the library's fixed-seed outputs.

The panel runs, on test case + ``prior``, pk + ``prior`` and pk +
``laplace``, and under likelihood budgets (``gradient._BLOCK_ENTRIES``) of
1, 300, 2**16 and 2**40 entries:

- ``unbiased_gradient``, antithetic and naive, at 1 and 2 threads, and
  ``eig_unbiased_mlmc``, under five level laws: ``tau`` 1.5, ``m0`` 64, the
  point mass at ``m0`` 4, ``w0`` 0.9, and ``m0`` 3 with ``tau`` 1.2;
- ``eig_nested`` at inner M 8;
- ``decay_study`` rows and ``beta_hat``, antithetic and naive.

The budget both joins narrow chunks into batches and cuts wide ones into
blocks, so the sweep covers both: at 1 entry every chunk is a batch of its
own and every sample a block of its own, at 2**40 every run of chunks of one
fit-row width is one batch and one block, and 2**16 is the default.

It prints one hash over the bytes of every output, in a fixed order.  It
uses public entry points only, and hashes the package under ``SRC``, by
default this repository's ``src``, so one file compares two versions of the
package (a checkout of the parent commit, say): equal hashes mean equal
bytes on the whole panel.  ``--parts`` also prints one hash per output, so
two runs can be diffed entry by entry.

    python3 tests/fingerprint.py [SRC] [--parts]
"""

import hashlib
import importlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
BUDGETS = (1, 300, 2**16, 2**40)
N_OUTER = 600              # two chunks, so that 2 threads run in parallel


def laws(pkg):
    w = pkg.LevelWeights
    return {
        "tau1.5": w(tau=1.5),
        "m0=64": w(m0=64),
        "point-m0=4": w(m0=4, w0_override=1.0),
        "w0=0.9": w(w0_override=0.9),
        "m0=3,tau1.2": w(m0=3, tau=1.2),
    }


def problems(pkg):
    tc = (pkg.TestCaseProblem(), pkg.Design(np.array([1.5])))
    pk = (pkg.PkProblem(), pkg.Design(pkg.default_config("pk").xi0))
    return {
        "testcase+prior": (*tc, pkg.PriorProposalFactory()),
        "pk+prior": (*pk, pkg.PriorProposalFactory()),
        "pk+laplace": (*pk, pkg.LaplaceProposalFactory()),
    }


def outputs(pkg, model, design, factory):
    """``(name, values)`` of every output of one problem's panel."""
    for law, w in laws(pkg).items():
        for antithetic in (True, False):
            for threads in (1, 2):
                g = pkg.unbiased_gradient(model, design, N_OUTER, w, factory, 11,
                                          threads=threads, antithetic=antithetic)
                yield (f"grad {law} antithetic={antithetic} threads={threads}",
                       (g.grad, g.n_outer, g.total_cost, g.per_sample_sq_norm_mean,
                        g.n_fallback))
        e = pkg.eig_unbiased_mlmc(model, design, N_OUTER, w, factory, 12)
        yield f"eig {law}", (e.value, e.std_error, e.total_inner_cost, e.n_fallback)
    e = pkg.eig_nested(model, design, N_OUTER, 8, factory, 13)
    yield "eig_nested M=8", (e.value, e.std_error, e.total_inner_cost, e.n_fallback)
    for antithetic in (True, False):
        r = pkg.decay_study(model, design, 6, 40, pkg.LevelWeights(tau=1.5), factory, 14,
                            antithetic=antithetic)
        yield (f"decay antithetic={antithetic}",
               ([[x.level, x.mean_sq_psi, x.mean_sq_delta, x.n_samples] for x in r.rows],
                r.beta_hat))


def _bytes(values) -> bytes:
    if isinstance(values, (tuple, list)) and not np.isscalar(values):
        return b"".join(_bytes(v) for v in values)
    a = np.asarray(values)
    return str(a.dtype).encode() + a.tobytes()


def main(argv) -> int:
    trees = [a for a in argv if not a.startswith("--")]
    sys.path.insert(0, str(Path(trees[0]).resolve() if trees else SRC))
    pkg = importlib.import_module("mlmc_boed")
    gradient = importlib.import_module("mlmc_boed.gradient")
    total = hashlib.sha256()
    for budget in BUDGETS:
        gradient._BLOCK_ENTRIES = budget
        for problem, args in problems(pkg).items():
            for name, values in outputs(pkg, *args):
                data = _bytes(values)
                total.update(data)
                if "--parts" in argv:
                    print(f"{hashlib.sha256(data).hexdigest()[:16]}  budget={budget} "
                          f"{problem} {name}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
