"""Layer timings and pipeline wall times of one or more checkouts, written to BENCH_<n>.json.

Usage (from the repository root):

    python3 scripts/bench_layers.py [--root DIR ...] [--label NAME ...] [--out FILE]

The roots are measured in ``ROUNDS`` rounds, in alternating order, so that a
slow spell of a shared host does not fall on one root alone.  In each round,
for each ``--root`` (default: the checkout holding this script) a fresh
interpreter, with BLAS threads pinned to 1 as in the benchmark, imports
``stackstokes`` from ``DIR/src`` and measures:

* the per-call time of ``grid.diffusion_solve``, ``grid.project_div_free``,
  ``grid.v_coordinates`` and ``grid.v_velocities`` on one level, and of a
  32-step convective ``stokes.solve_forward`` (a projected random start and
  random forcing, small enough that the advective CFL number stays under 1
  at 128), on square unit grids with nx = 16/32/64/128; and at
  nx = 16/32/64, of one ``stokes.adjoint_coupling`` on one level and, with
  nt = 32 and the regions of the shipped ``saddle`` config at ell = gamma =
  10, of one ``stokes.solve_coupled_linear`` (a random leader control and a
  projected random start) and one coupled ``stokes.solve_backward_adjoint``
  (a projected random phi(T)), and, where the root has ``grid.v_mask``, one
  application of the observation mask's V operator Q^T diag(d) Q to a
  random (nt + 1)-level stack, copied into place before each call (the copy
  included; the operator acts in place).  Every layer goes through the
  public API, so the same code measures every root.  Each is the median over 7 batches of
  the per-call time within a batch, and the recorded value the median over
  the rounds;
* the wall time of each shipped config in ``DIR/configs``, run through
  ``harness.parse_config`` and ``harness.run_experiment`` into a temporary
  directory, one pass over the configs per round: the median and every run.

The results of all roots go into one JSON file (default ``BENCH_1.json``
next to this script's checkout), keyed by ``--label`` (default: the name of
the root directory), with the host's CPU count and the numpy version.  Each
root after the first also records, for every layer, size and config, in how
many rounds it was faster than the first root: a per-round pairing that
the medians alone do not show.
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
# the sizes of the coupled layers
COUPLED_SIZES = (16, 32, 64)
BATCHES = 7
MARCH_STEPS = 32
ROUNDS = 5
# calls of a layer per batch, and of the solves a tenth as many (at least one)
CALLS = {16: 100, 32: 50, 64: 10, 128: 3}
SOLVES = ("convective_forward_32_steps", "coupled_linear_solve", "adjoint_pair")


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
                                    "v_velocities", "convective_forward_32_steps",
                                    "adjoint_coupling", "coupled_linear_solve",
                                    "adjoint_pair", "mask_operator")}
    rng = np.random.default_rng(0)
    for n in SIZES:
        g = grid.GridSpec(nx=n, ny=n, nt=MARCH_STEPS, T=1.0)
        field = grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1)[0])
        coeffs = rng.standard_normal((n - 1) ** 2)
        out = np.empty(g.n_faces)
        start = grid.project_div_free(
            grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1, 0.01)[0]))
        forcing = stokes.ForcingAssembly(g, extra_source=grid.Trajectory(
            g, grid.closed_noise(g, rng, MARCH_STEPS + 1, 0.01)))
        convective = stokes.SolverOptions(convection_on=True)
        omega = grid.Region(0.35, 0.75, 0.35, 0.75)
        chi = grid.SmoothCutoff.for_grid(grid.Region(0.05, 0.25, 0.05, 0.25), g)
        coupling = stokes.Coupling.build(g, chi, grid.Region(0.45, 0.95, 0.45, 0.95),
                                         10.0, 10.0, 1.0)
        h = grid.Trajectory(g, grid.closed_noise(g, rng, MARCH_STEPS + 1, 0.1, first=1))
        calls = CALLS[n]
        timed = {
            "diffusion_solve": lambda: grid.diffusion_solve(field, g.dt),
            "project_div_free": lambda: grid.project_div_free(field),
            "v_coordinates": lambda: grid.v_coordinates(field.data, g),
            "v_velocities": lambda: grid.v_velocities(coeffs, g, out),
            "convective_forward_32_steps": lambda: stokes.solve_forward(start, forcing,
                                                                        convective),
        }
        if n in COUPLED_SIZES:
            if hasattr(grid, "v_mask"):
                mask_op = grid.v_mask(coupling.obs_mask.data, g)
                stack = rng.standard_normal((MARCH_STEPS + 1, (n - 1) ** 2))
                work = np.empty_like(stack)
                timed["mask_operator"] = lambda: mask_op(np.copyto(work, stack) or work)
            timed.update({
                "adjoint_coupling": lambda: stokes.adjoint_coupling(start, field),
                "coupled_linear_solve": lambda: stokes.solve_coupled_linear(
                    h, start, None, coupling, omega=omega),
                "adjoint_pair": lambda: stokes.solve_backward_adjoint(start, None, None, None,
                                                                      coupling),
            })
        for name, fn in timed.items():
            layers[name][str(n)] = _per_call_us(fn, max(1, calls // 10) if name in SOLVES
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


def _wins(rounds: list, base: list) -> dict:
    """For each layer and size, and each config, the number of rounds in which
    ``rounds`` measured less time than ``base`` did in the same round."""
    layers = {name: {n: sum(r["layers_us_per_call"][name][n] < b["layers_us_per_call"][name][n]
                            for r, b in zip(rounds, base))
                     for n in sizes}
              for name, sizes in base[0]["layers_us_per_call"].items()}
    configs = {name: sum(r["configs_wall_s"][name] < b["configs_wall_s"][name]
                         for r, b in zip(rounds, base))
               for name in base[0]["configs_wall_s"]}
    return {"layers_us_per_call": layers, "configs_wall_s": configs}


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
    for label in labels[1:]:
        runs[label]["rounds_faster_than_" + labels[0]] = _wins(rounds[label], rounds[labels[0]])
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
                   f"convective forward: stokes.solve_forward with convection_on, "
                   f"{MARCH_STEPS} steps per call; "
                   f"coupled layers at nx = {'/'.join(map(str, COUPLED_SIZES))}: one "
                   f"adjoint_coupling on one level, and one solve_coupled_linear and one "
                   f"coupled solve_backward_adjoint, nt = {MARCH_STEPS}, per call; "
                   f"mask_operator (roots with grid.v_mask): the observation mask's V "
                   f"operator on a {MARCH_STEPS + 1}-level stack, its copy included; "
                   f"configs: wall seconds, median of {ROUNDS} passes, one per round; "
                   f"rounds_faster_than_<first label>: per layer, size and config, the "
                   f"rounds (of {ROUNDS}) in which a later root took less time than the "
                   f"first one"),
        "counters": "not recorded: work counters wait for the program's own telemetry",
        "runs": runs,
    }, indent=2) + "\n")


if __name__ == "__main__":
    main()
