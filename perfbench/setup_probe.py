"""Time the program's set-up for one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <source dir> <workload> <seed>

The clock starts once numpy and scipy are loaded, so the interpreter's own
start and the third-party imports, which no change to the program can move,
are left out.  It covers importing ``stackstokes``, parsing and validating the
config, synthesizing the data and building the problem (masks, Coupling and
transform tables).  Prints one JSON object with the elapsed seconds.
"""

import json
import sys
import time

import numpy  # noqa: F401
import scipy  # noqa: F401
import scipy.fft  # noqa: F401

import workloads


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    raws = workloads.config_dicts(workload, seed)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from stackstokes import harness

    for raw in raws:
        workloads.build_problem(harness.config_from_dict(raw))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
