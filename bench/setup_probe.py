"""One benchmark set-up in a fresh interpreter.

``run.py`` starts this as ``python3 setup_probe.py SRC PROBLEM OVERRIDES_JSON``
and times it from process start until the line it prints.  The probe imports
the CLI module, builds what a CLI command builds before its first estimate
(config, model, design, weights, proposal factory), prints one JSON line with
its own import and build times, and exits.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    src, problem, overrides = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    import scipy.special  # noqa: F401  (the largest import under the package)
    t2 = perf_counter()
    import mlmc_boed.cli  # noqa: F401
    from mlmc_boed.config import default_config
    t3 = perf_counter()
    cfg = default_config(problem).with_overrides(**overrides)
    cfg.make_model(), cfg.make_design(), cfg.make_box()
    cfg.make_weights(), cfg.make_proposal_factory()
    t4 = perf_counter()
    print(json.dumps({"import_s": t3 - t0, "scipy_import_s": t2 - t1, "build_s": t4 - t3}),
          flush=True)


if __name__ == "__main__":
    main()
