"""Peak memory and wall time of the benchmark's manufactured-solution pipeline.

Usage (from the repository root):

    python3 scripts/forward_peak.py [--seed N] [--root DIR]

Runs the ``mms-forward`` config of ``perfbench/workloads.py`` (the
convergence study on 32/64/128 grids, nt = 32/128/512) once, through
``harness.config_from_dict`` and ``harness.run_experiment`` into a
temporary directory, in the interpreter this command starts, with BLAS
threads pinned to 1 as in the benchmark.  It prints one JSON line: the
peak resident memory of the process (``ru_maxrss``, in MiB) and the wall
time of the pipeline.  ``--root`` names the checkout whose ``src`` and
``perfbench/workloads.py`` are used (default: the one holding this
script), so that two checkouts can be measured by the same script, one
fresh process each.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--root", type=Path, default=ROOT)
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from stackstokes import harness

    build = runpy.run_path(str(root / "perfbench" / "workloads.py"))["BUILDERS"]["mms-forward"]
    cfg = harness.config_from_dict(build(args.seed))
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        record = harness.run_experiment(cfg, out)
        wall = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "root": str(root),
        "seed": args.seed,
        "sizes": cfg.options["sizes"],
        "errors": record.metrics["errors"],
        "ru_maxrss_mib": round(peak_kib / 1024, 2),
        "wall_s": round(wall, 3),
    }))


if __name__ == "__main__":
    main()
