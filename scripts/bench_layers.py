"""Layer timings and pipeline wall times of one or more checkouts, written to BENCH_<n>.json.

Usage (from the repository root):

    python3 scripts/bench_layers.py [--root DIR ...] [--label NAME ...] [--out FILE]

One interpreter, with BLAS threads pinned to 1 as in the benchmark, loads the
``stackstokes`` package of every ``--root`` (default: the checkout holding
this script) from ``DIR/src`` under a name of its own (``checkouts.load``).
A root given twice is loaded twice: that pair runs identical code, and its
readings show the spread of the host (an A/A pair; give each a ``--label``).
Every layer goes through the public API, so the same code measures every
root, on inputs drawn from the same seed for each root:

* on square unit grids with nx = 16/32/64/128, the per-call time of
  ``grid.diffusion_solve``, ``grid.project_div_free``, ``grid.v_coordinates``
  and ``grid.v_velocities`` on one level, and of a 32-step convective
  ``stokes.solve_forward`` (a projected random start and random forcing,
  small enough that the advective CFL number stays under 1 at 128);
* at nx = 16/32/64/96/128, of one in-place ``grid.v_step`` (nt = 32) on
  random coordinates, copied into place before each call (the copy
  included, so that repeated steps do not decay into subnormal numbers),
  with its work arrays from ``grid.v_work``: the sizes around the cut at
  which the step switches to the parity classes of its modes;
* at nx = 16/32/64, of one ``stokes.adjoint_coupling`` on one level and,
  with nt = 32 and the regions of the shipped ``saddle`` config at ell =
  gamma = 10, of one ``stokes.solve_coupled_linear`` (a random leader
  control and a projected random start), one coupled
  ``stokes.solve_backward_adjoint`` (a projected random phi(T)), and one
  application of the observation mask's V operator ``grid.v_mask`` to a
  random (nt + 1)-level stack, copied into place before each call (the copy
  included; the operator acts in place);
* at nx = 16/32/64, of one ``leader.penalized_gradient`` (a random control)
  on the geometry of the root's ``configs/nullcontrol.json``: one coupled
  solve and one adjoint pair, the work of one iteration of
  ``leader.solve_null_control_cg``.

A layer that some root lacks is not timed.  Each layer and size is timed in
``PAIRS`` paired batches: a batch calls the layer of every root in turn, in
an order rotated by one root from batch to batch.  The shipped configs of
each root's ``DIR/configs`` run the same way, through
``harness.parse_config`` and ``harness.run_experiment`` into a temporary
directory, one run per root in each of ``ROUNDS`` paired rounds.

The results of all roots go into one JSON file (default ``BENCH_1.json``
next to this script's checkout), keyed by ``--label`` (default: the name of
the root directory), with the host's CPU count and the numpy version: each
root's commit (``checkouts.commit``; make the root of an earlier commit as
``checkouts.py`` says, so that its hash is read), its median per-call time of
every layer and size and median wall time of every config, and, for each
root after the first, the paired batches and rounds it won against the
first root, out of how many.
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
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checkouts import commit, load  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128)
# the sizes of the step layer
STEP_SIZES = (16, 32, 64, 96, 128)
# the sizes of the coupled layers
COUPLED_SIZES = (16, 32, 64)
MARCH_STEPS = 32
PAIRS = 30
ROUNDS = 5
# calls of a layer per batch, of the solves a tenth as many (at least one),
# and of the step ten times as many
CALLS = {16: 100, 32: 50, 64: 10, 96: 5, 128: 3}
SOLVES = ("convective_forward_32_steps", "coupled_linear_solve", "adjoint_pair",
          "cg_iteration")


def layers(pkg, root: Path, n: int) -> dict:
    """{layer name: a call of it} at size ``n`` for the package ``pkg`` of ``root``."""
    grid, stokes, leader, harness = pkg.grid, pkg.stokes, pkg.leader, pkg.harness
    g = grid.GridSpec(nx=n, ny=n, nt=MARCH_STEPS, T=1.0)
    step_start = np.random.default_rng(n).standard_normal((n - 1, n - 1))
    step_e, step_work = np.empty_like(step_start), grid.v_work(g)
    step = {"v_step": lambda: grid.v_step(np.copyto(step_e, step_start) or step_e, g, step_e,
                                          step_work)}
    if n not in SIZES:
        return step
    rng = np.random.default_rng(n)
    field = grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1)[0])
    coeffs = rng.standard_normal((n - 1) ** 2)
    out = np.empty(g.n_faces)
    start = grid.project_div_free(
        grid.VelocityField.from_packed(g, grid.closed_noise(g, rng, 1, 0.01)[0]))
    forcing = stokes.ForcingAssembly(g, extra_source=grid.Trajectory(
        g, grid.closed_noise(g, rng, MARCH_STEPS + 1, 0.01)))
    convective = stokes.SolverOptions(convection_on=True)
    timed = {
        **step,
        "diffusion_solve": lambda: grid.diffusion_solve(field, g.dt),
        "project_div_free": lambda: grid.project_div_free(field),
        "v_coordinates": lambda: grid.v_coordinates(field.data, g),
        "v_velocities": lambda: grid.v_velocities(coeffs, g, out),
        "convective_forward_32_steps": lambda: stokes.solve_forward(start, forcing, convective),
    }
    if n not in COUPLED_SIZES:
        return timed
    omega = grid.Region(0.35, 0.75, 0.35, 0.75)
    chi = grid.SmoothCutoff.for_grid(grid.Region(0.05, 0.25, 0.05, 0.25), g)
    coupling = stokes.Coupling.build(g, chi, grid.Region(0.45, 0.95, 0.45, 0.95),
                                     10.0, 10.0, 1.0)
    h = grid.Trajectory(g, grid.closed_noise(g, rng, MARCH_STEPS + 1, 0.1, first=1))
    raw = json.loads((root / "configs" / "nullcontrol.json").read_text())
    raw["grid"].update(nx=n, ny=n)
    cfg = harness.config_from_dict(raw)
    prob = cfg.problem()
    h_cg = grid.Trajectory(prob.grid, grid.closed_noise(prob.grid, rng, raw["grid"]["nt"] + 1,
                                                        0.1, first=1))
    timed.update({
        "adjoint_coupling": lambda: stokes.adjoint_coupling(start, field),
        "coupled_linear_solve": lambda: stokes.solve_coupled_linear(h, start, None, coupling,
                                                                    omega=omega),
        "adjoint_pair": lambda: stokes.solve_backward_adjoint(start, None, None, None, coupling),
        "cg_iteration": lambda: leader.penalized_gradient(prob, h_cg, cfg.penalty),
    })
    if hasattr(grid, "v_mask"):
        mask_op = grid.v_mask(coupling.obs_mask.data, g)
        stack = rng.standard_normal((MARCH_STEPS + 1, (n - 1) ** 2))
        work = np.empty_like(stack)
        timed["mask_operator"] = lambda: mask_op(np.copyto(work, stack) or work)
    return timed


def paired(fns: list, batches: int, calls: int) -> list:
    """For each of ``fns``, its per-call seconds in each of ``batches`` paired
    batches of ``calls`` calls.  Batch b starts at ``fns[b % len(fns)]`` and
    runs the rest in turn, so every fn takes every position equally often,
    and with three or more fns none runs twice in a row."""
    times = [[] for _ in fns]
    for b in range(batches):
        for k in range(len(fns)):
            i = (b + k) % len(fns)
            t0 = time.perf_counter()
            for _ in range(calls):
                fns[i]()
            times[i].append((time.perf_counter() - t0) / calls)
    return times


def measure(pkgs: list, roots: list, tmp: Path):
    """(where its entry goes, unit in s, per-root times) of every layer and size,
    then of every config."""
    for n in sorted({*SIZES, *STEP_SIZES}):
        timed = [layers(pkg, root, n) for pkg, root in zip(pkgs, roots)]
        for name in [k for k in timed[0] if all(k in t for t in timed)]:
            fns = [t[name] for t in timed]
            for fn in fns:
                fn()
            calls = (max(1, CALLS[n] // 10) if name in SOLVES
                     else 10 * CALLS[n] if name == "v_step" else CALLS[n])
            yield ("layers_us_per_call", name, str(n)), 1e-6, paired(fns, PAIRS, calls)
    for path in sorted((roots[0] / "configs").glob("*.json")):
        fns = [partial(pkg.harness.run_experiment,
                       pkg.harness.parse_config(root / "configs" / path.name), tmp / str(i))
               for i, (pkg, root) in enumerate(zip(pkgs, roots))]
        yield ("configs_wall_s", path.stem), 1.0, paired(fns, ROUNDS, 1)


def put(tree: dict, keys: tuple, value) -> None:
    """Set ``tree[k0][k1]...[kn] = value``, making the dicts on the way."""
    for key in keys[:-1]:
        tree = tree.setdefault(key, {})
    tree[keys[-1]] = value


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, action="append")
    p.add_argument("--label", action="append")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_1.json")
    args = p.parse_args(argv)
    roots = [r.resolve() for r in args.root or [ROOT]]
    labels = args.label or [r.name for r in roots]
    if len(labels) != len(roots) or len(set(labels)) != len(labels):
        p.error("give one distinct --label per --root")
    pkgs = [load(root, f"stackstokes_{i}") for i, root in enumerate(roots)]
    won = "won_against_" + labels[0]
    runs = {label: {"commit": commit(root)} for label, root in zip(labels, roots)}
    with tempfile.TemporaryDirectory() as tmp:
        for keys, unit, times in measure(pkgs, roots, Path(tmp)):
            medians = [float(f"{statistics.median(ts) / unit:.4g}") for ts in times]
            wins = [[sum(t < t0 for t, t0 in zip(ts, times[0])), len(ts)] for ts in times[1:]]
            for label, value in zip(labels, medians):
                put(runs[label], keys, value)
            for label, value in zip(labels[1:], wins):
                put(runs[label], (won, *keys), value)
            print(f"{' '.join(keys[1:])}: {medians}, won {wins}", flush=True)
    args.out.write_text(json.dumps({
        "script": "scripts/bench_layers.py",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": 1},
        "method": (f"one interpreter, each root's package loaded under its own name; "
                   f"per layer and size, {PAIRS} paired batches, each calling every root's "
                   f"layer in turn, in an order rotated by one root every batch; per-call "
                   f"time: median over the batches of the batch's per-call mean; "
                   f"v_step: one in-place step at nx = {'/'.join(map(str, STEP_SIZES))}, "
                   f"nt = {MARCH_STEPS}, its copy into place included; "
                   f"convective forward: stokes.solve_forward with convection_on, "
                   f"{MARCH_STEPS} steps per call; "
                   f"coupled layers at nx = {'/'.join(map(str, COUPLED_SIZES))}: one "
                   f"adjoint_coupling on one level, and one solve_coupled_linear and one "
                   f"coupled solve_backward_adjoint, nt = {MARCH_STEPS}, per call; "
                   f"mask_operator: the observation mask's V operator on a "
                   f"{MARCH_STEPS + 1}-level stack, its copy included; cg_iteration: one "
                   f"leader.penalized_gradient on the nullcontrol geometry; a layer some "
                   f"root lacks is not timed; "
                   f"configs: median wall seconds of {ROUNDS} paired rounds; "
                   f"{won}: per layer and size, and per config, [batches or rounds in "
                   f"which the root took less time than the first root, batches or rounds]"),
        "counters": "not recorded: work counters wait for the program's own telemetry",
        "runs": runs,
    }, indent=2) + "\n")


if __name__ == "__main__":
    main()
