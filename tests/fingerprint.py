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
uses public entry points only, so two versions of the package can be
compared by running the same file against each; equal hashes mean equal
bytes on the whole panel.  ``--parts`` also prints one hash per output.

    python3 tests/fingerprint.py [--parts]
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mlmc_boed import (  # noqa: E402
    Design,
    LaplaceProposalFactory,
    LevelWeights,
    PkProblem,
    PriorProposalFactory,
    TestCaseProblem,
    decay_study,
    default_config,
    eig_nested,
    eig_unbiased_mlmc,
    gradient,
    unbiased_gradient,
)

BUDGETS = (1, 300, 2**16, 2**40)
LAWS = {
    "tau1.5": LevelWeights(tau=1.5),
    "m0=64": LevelWeights(m0=64),
    "point-m0=4": LevelWeights(m0=4, w0_override=1.0),
    "w0=0.9": LevelWeights(w0_override=0.9),
    "m0=3,tau1.2": LevelWeights(m0=3, tau=1.2),
}
N_OUTER = 600              # two chunks, so that 2 threads run in parallel


def problems():
    tc = (TestCaseProblem(), Design(np.array([1.5])))
    pk = (PkProblem(), Design(default_config("pk").xi0))
    return {
        "testcase+prior": (*tc, PriorProposalFactory()),
        "pk+prior": (*pk, PriorProposalFactory()),
        "pk+laplace": (*pk, LaplaceProposalFactory()),
    }


def outputs(model, design, factory):
    """``(name, values)`` of every output of one problem's panel."""
    for law, w in LAWS.items():
        for antithetic in (True, False):
            for threads in (1, 2):
                g = unbiased_gradient(model, design, N_OUTER, w, factory, 11,
                                      threads=threads, antithetic=antithetic)
                yield (f"grad {law} antithetic={antithetic} threads={threads}",
                       (g.grad, g.n_outer, g.total_cost, g.per_sample_sq_norm_mean,
                        g.n_fallback))
        e = eig_unbiased_mlmc(model, design, N_OUTER, w, factory, 12)
        yield f"eig {law}", (e.value, e.std_error, e.total_inner_cost, e.n_fallback)
    e = eig_nested(model, design, N_OUTER, 8, factory, 13)
    yield "eig_nested M=8", (e.value, e.std_error, e.total_inner_cost, e.n_fallback)
    for antithetic in (True, False):
        r = decay_study(model, design, 6, 40, LevelWeights(tau=1.5), factory, 14,
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
    total = hashlib.sha256()
    for budget in BUDGETS:
        gradient._BLOCK_ENTRIES = budget
        for problem, args in problems().items():
            for name, values in outputs(*args):
                data = _bytes(values)
                total.update(data)
                if "--parts" in argv:
                    print(f"{hashlib.sha256(data).hexdigest()[:16]}  budget={budget} "
                          f"{problem} {name}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
