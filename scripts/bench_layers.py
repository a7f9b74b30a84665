"""Layer timings and pipeline wall times of one or more checkouts, written to BENCH_<n>.json.

Usage (from the repository root):

    python3 scripts/bench_layers.py [--root DIR ...] [--label NAME ...] [--out FILE]

The roots are measured in three rounds, in alternating order, so that a
slow spell of a shared host does not fall on one root alone.  In each round,
for each ``--root`` (default: the checkout holding this script) a fresh
interpreter, with BLAS threads pinned to 1 as in the benchmark, imports
``stackstokes`` from ``DIR/src`` and measures:

* the per-call time of ``grid.diffusion_solve``, ``grid.project_div_free``,
  ``grid.v_coordinates`` and ``grid.v_velocities`` on one level, and of a
  32-step termless ``stokes._march`` (random sources, zero start), and of a
  32-step convective ``stokes.solve_forward`` through the public API (a
  projected random start and random forcing, small enough that the advective
  CFL number stays under 1 at 128), on square unit grids with
  nx = 16/32/64/128.  Each is the median over 7 batches of the per-call time
  within a batch, and the recorded value the median over the rounds;
* the wall time of each shipped config in ``DIR/configs``, run through
  ``harness.parse_config`` and ``harness.run_experiment`` into a temporary
  directory, one pass over the configs per round: the median and every run.

The results of all roots go into one JSON file (default ``BENCH_1.json``
next to this script's checkout), keyed by ``--label`` (default: the name of
the root directory), with the host's CPU count and the numpy version.
Work counters (steps, products, Picard sweeps, CG iterations) are not
recorded: they wait for the program's own telemetry.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128)
BATCHES = 7
MARCH_STEPS = 32
ROUNDS = 3
# calls of a layer per batch, and of the 32-step runs a tenth as many (at least one)
CALLS = {16: 100, 32: 50, 64: 10, 128: 3}


def _per_call_us(fn, calls: int) -> float:
    """Median over the batches of the per-call time of ``fn()``, in microseconds."""
    fn()
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return round(statistics.median(times), 2)


def measure(root: Path) -> dict:
    """The layer timings and config wall times of the checkout at ``root``."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from stackstokes import grid, harness, stokes

    layers = {name: {} for name in ("diffusion_solve", "project_div_free", "v_coordinates",
                                    "v_velocities", "march_32_steps",
                                    "convective_forward_32_steps")}
    rng = np.random.default_rng(0)
    for n in SIZES:
        g = grid.GridSpec(nx=n, ny=n, nt=MARCH_STEPS, T=1.0)
        field = grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1)[0])
        coeffs = rng.standard_normal((n - 1) ** 2)
        out = np.empty(g.n_faces)
        # the march receives its states in place; they stay bounded, and are
        # the sources of the next call
        stack = grid.closed_noise(g, rng, MARCH_STEPS, 1e-3)
        zero = grid.VelocityField.zeros(g)
        start = grid.project_div_free(
            grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1, 0.01)[0]))
        forcing = stokes.ForcingAssembly(g, extra_source=grid.Trajectory(
            g, grid.closed_noise(g, rng, MARCH_STEPS + 1, 0.01)))
        convective = stokes.SolverOptions(convection_on=True)
        calls = CALLS[n]
        timed = {
            "diffusion_solve": lambda: grid.diffusion_solve(field, g.dt),
            "project_div_free": lambda: grid.project_div_free(field),
            "v_coordinates": lambda: grid.v_coordinates(field.data, g),
            "v_velocities": lambda: grid.v_velocities(coeffs, g, out),
            "march_32_steps": lambda: stokes._march(g, range(1, MARCH_STEPS + 1), zero, stack),
            "convective_forward_32_steps": lambda: stokes.solve_forward(start, forcing,
                                                                        convective),
        }
        for name, fn in timed.items():
            layers[name][str(n)] = _per_call_us(fn, max(1, calls // 10) if "32_steps" in name
                                                else calls)
    configs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((root / "configs").glob("*.json")):
            cfg = harness.parse_config(path)
            t0 = time.perf_counter()
            harness.run_experiment(cfg, Path(tmp) / path.stem)
            configs[path.stem] = round(time.perf_counter() - t0, 3)
    return {"layers_us_per_call": layers, "configs_wall_s": configs}


def _combine(rounds: list) -> dict:
    """One root's record from its rounds: the median layer times, and each config's
    median and runs, with every round's layer times kept."""
    layers = {name: {n: statistics.median(r["layers_us_per_call"][name][n] for r in rounds)
                     for n in sizes}
              for name, sizes in rounds[0]["layers_us_per_call"].items()}
    configs = {}
    for name in rounds[0]["configs_wall_s"]:
        times = [r["configs_wall_s"][name] for r in rounds]
        configs[name] = {"median": statistics.median(times), "runs": times}
    return {"layers_us_per_call": layers, "configs_wall_s": configs,
            "layers_per_round": [r["layers_us_per_call"] for r in rounds]}


def _commit(root: Path):
    """The short HEAD commit of a git checkout at ``root``, marked ``+changes`` if
    its tracked files differ from it, or None outside git."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, action="append")
    p.add_argument("--label", action="append")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_1.json")
    p.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure.resolve())))
        return
    roots = [r.resolve() for r in args.root or [ROOT]]
    labels = args.label or [r.name for r in roots]
    if len(labels) != len(roots):
        p.error("give one --label per --root")
    rounds = {label: [] for label in labels}
    order = list(zip(labels, roots))
    for _ in range(ROUNDS):
        for label, root in order:
            child = subprocess.run([sys.executable, __file__, "--measure", str(root)],
                                   capture_output=True, text=True, check=True)
            rounds[label].append(json.loads(child.stdout.splitlines()[-1]))
            print(f"{label}: {json.dumps(rounds[label][-1])}")
        order.reverse()
    runs = {label: {"commit": _commit(root), **_combine(rounds[label])}
            for label, root in zip(labels, roots)}
    import numpy as np

    args.out.write_text(json.dumps({
        "script": "scripts/bench_layers.py",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": 1},
        "method": (f"{ROUNDS} rounds over the roots in alternating order, one fresh "
                   f"interpreter per root and round; "
                   f"per-call time: median over {BATCHES} batches of the per-call mean, "
                   f"then over the rounds; "
                   f"march: {MARCH_STEPS} termless steps of stokes._march per call; "
                   f"convective forward: stokes.solve_forward with convection_on, "
                   f"{MARCH_STEPS} steps per call; "
                   f"configs: wall seconds, median of {ROUNDS} passes, one per round"),
        "counters": "not recorded: work counters wait for the program's own telemetry",
        "runs": runs,
    }, indent=2) + "\n")


if __name__ == "__main__":
    main()
