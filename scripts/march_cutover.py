"""Per-step time of a termless march in V coordinates and on the faces.

Usage (from the repository root):

    PYTHONPATH=src python3 scripts/march_cutover.py [sizes...]

For each square grid (default nx = 16 20 24 28 32, nt = 32) it times one
march of random sources through ``stokes._march`` twice: in V coordinates,
with the cut-over of ``grid.v_step_matrix`` lifted, and on the faces, with
the cut-over set to 0.  It prints the best of 30 marches per step, the time
to build the step matrix H and the size of H.  BLAS threads are pinned to 1,
as in the benchmark.  The cut-over ``grid._V_MAX_DIM`` is the largest grid
where the V march stays clearly the faster one.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from stackstokes import grid  # noqa: E402
from stackstokes.stokes import _march  # noqa: E402

REPEATS = 30


def per_step_us(g: grid.GridSpec) -> float:
    base = np.random.default_rng(0).standard_normal((g.nt + 1, g.n_faces))
    zero = grid.VelocityField.zeros(g)
    best = np.inf
    for _ in range(REPEATS):
        stack = base.copy()
        t0 = time.perf_counter()
        _march(g, range(1, g.nt + 1), zero, stack[1:])
        best = min(best, time.perf_counter() - t0)
    return best / g.nt * 1e6


def main(sizes) -> None:
    cut_over = grid._V_MAX_DIM
    try:
        for n in sizes:
            g = grid.GridSpec(nx=n, ny=n, nt=32, T=1.0)
            grid._V_MAX_DIM = (n - 1) ** 2
            t0 = time.perf_counter()
            h = grid.v_step_matrix(g)
            build_ms = (time.perf_counter() - t0) * 1e3
            v_us = per_step_us(g)
            grid._V_MAX_DIM = 0
            face_us = per_step_us(g)
            print(f"nx={n:3d}  V {v_us:7.1f} us/step  faces {face_us:7.1f} us/step  "
                  f"H built in {build_ms:5.1f} ms, {h.nbytes / 2**20:5.2f} MiB")
    finally:
        grid._V_MAX_DIM = cut_over


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 20, 24, 28, 32])
