"""Correctness checks of one workload round, made apart from the pipeline.

Every check compares the pipeline's persisted outputs with a computation the
benchmark makes itself, or with a property the method must have; none
compares with a stored copy of earlier output.  Each check function returns
a list of ``(name, ok, detail)`` rows.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from stackstokes import fieldio, stokes
from stackstokes.grid import (
    GridSpec,
    Trajectory,
    VelocityField,
    inner,
    inner_space_time,
    norm,
    project_div_free,
    traj_norm,
)
from stackstokes.leader import PenaltyConfig, penalized_gradient
from stackstokes.saddle import SaddleProblem, robust_cost

# The CG stops on its recursive residual at cg_tol; the true residual of the
# normal equations recomputed from the stored h may drift from it by round-off.
CG_RESIDUAL_MULTIPLE = 10.0
DUALITY_TOL = 1e-8
# |J(psi+d) - J(psi) - Q(d)| relative to the size of the terms involved.
QUADRATIC_TOL = 1e-9
SADDLE_PROBES = 3
MMS_RATIO_RANGE = (3.5, 4.5)
MMS_ERROR_RTOL = 1e-9


def _row(name, ok, detail):
    return (name, bool(ok), detail)


def _number(text: str) -> float:
    # The harness writes numpy scalars with repr(), which numpy 2 renders as
    # "np.float64(...)"; read the number inside.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


def _closed_noise(grid: GridSpec, rng: np.random.Generator) -> VelocityField:
    u = rng.standard_normal((grid.nx + 1, grid.ny))
    v = rng.standard_normal((grid.nx, grid.ny + 1))
    return VelocityField(grid, u, v).apply_noslip()


def _control(grid: GridSpec, rng: np.random.Generator, amp: float = 1.0) -> Trajectory:
    """Seeded trajectory with the inert level-0 slot zero."""
    zero = VelocityField.zeros(grid)
    return Trajectory(grid, [zero] + [_closed_noise(grid, rng) * amp
                                      for _ in range(grid.nt)])


def _duality(grid, omega, coupling, y0, opts, h, rng):
    """<y(T;h) - y(T;0), w> against <h, control_gradient(adjoint(w), omega)>.

    Returns the check's (ok, detail) and the two terminal states.
    """
    w = project_div_free(_closed_noise(grid, rng))
    y_h = stokes.solve_coupled_linear(h, y0, None, coupling, opts, omega=omega).y[grid.nt]
    y_0 = stokes.solve_coupled_linear(None, y0, None, coupling, opts, omega=omega).y[grid.nt]
    lhs = inner(y_h - y_0, w)
    adj = stokes.solve_backward_adjoint(w, None, None, None, coupling, opts)
    rhs = inner_space_time(
        h, stokes.control_gradient(adj.phi, omega.face_indicator(grid))
    )
    scale = max(norm(y_h - y_0) * norm(w), 1e-300)
    gap = abs(lhs - rhs) / scale
    return ((gap <= DUALITY_TOL, f"relative gap {gap:.3e} (lhs {lhs:.6e}, rhs {rhs:.6e})"),
            y_h, y_0)


def check_nullcontrol(cfg, record, run_dir, seed: int) -> list:
    g = cfg.grid
    prob = cfg.problem()
    h = fieldio.read_trajectory(Path(run_dir) / "fields", "h", g)
    rows = []

    sched = cfg.penalty.epsilon_schedule or (cfg.penalty.epsilon,)
    pen = PenaltyConfig(epsilon=sched[-1], cg_tol=cfg.penalty.cg_tol,
                        cg_max=cfg.penalty.cg_max)
    r_h = traj_norm(penalized_gradient(prob, h, pen))
    r_0 = traj_norm(penalized_gradient(prob, Trajectory.zeros(g), pen))
    rel = r_h / r_0
    rows.append(_row("nullcontrol.normal_equation_residual",
                     rel <= CG_RESIDUAL_MULTIPLE * pen.cg_tol,
                     f"|grad(h)|/|grad(0)| = {rel:.3e}, limit "
                     f"{CG_RESIDUAL_MULTIPLE:g} * cg_tol = {CG_RESIDUAL_MULTIPLE * pen.cg_tol:.1e}"))

    # the nullcontrol problem has no target, so these terminal states are
    # control_to_terminal(prob, h) and control_to_terminal(prob, None)
    duality, y_h, y_0 = _duality(g, cfg.omega, prob.coupling, prob.y0, prob.opts,
                                 h, np.random.default_rng([seed, 1]))
    term_h, term_0 = norm(y_h), norm(y_0)
    sweep = [_number(r["terminal_norm"]) for r in _read_csv(Path(run_dir) / "epsilon_sweep.csv")]
    rows.append(_row("nullcontrol.terminal_decreasing",
                     len(sweep) == len(sched)
                     and all(b < a for a, b in zip(sweep, sweep[1:])),
                     f"terminal norms along the schedule {sweep}"))
    rows.append(_row("nullcontrol.below_uncontrolled", term_h < term_0,
                     f"|y(T;h)| = {term_h:.6e}, |y(T;0)| = {term_0:.6e}"))
    reported = float(record.metrics["terminal_norm"])
    rows.append(_row("nullcontrol.reported_terminal_norm",
                     abs(reported - term_h) <= 1e-9 * term_h,
                     f"reported {reported:.12e}, recomputed {term_h:.12e}"))
    rows.append(_row("nullcontrol.duality", *duality))
    return rows


def _zero_data_problem(prob: SaddleProblem) -> SaddleProblem:
    return SaddleProblem(prob.grid, prob.omega, prob.follower_cutoff, prob.obs_region,
                         VelocityField.zeros(prob.grid), None, prob.params, prob.opts)


def check_saddle(cfg, record, run_dir, seed: int) -> list:
    """The cost is exactly quadratic: J(x + d) - J(x) = Q(d) at a stationary x.

    Q(d) is the cost of a zero-data problem driven by d alone, so the identity
    checks the first-order condition at the stored saddle through the forward
    path only; the sign of Q(d) then gives the saddle inequalities.
    """
    g = cfg.grid
    prob = cfg.problem()
    lead = cfg.leader_trajectory()
    fields = Path(run_dir) / "fields"
    psi = fieldio.read_trajectory(fields, "psi_bar", g)
    v = fieldio.read_trajectory(fields, "v_bar", g)
    zero = _zero_data_problem(prob)
    rng = np.random.default_rng([seed, 2])
    J0 = robust_cost(prob, lead, psi, v)
    tol_saddle = 1e-8 * max(1.0, abs(J0))
    # J(psi + d, v) and J(psi, v + d), each with the zero-data cost Q(d)
    directions = {
        "psi": (lambda d: robust_cost(prob, lead, psi + d, v),
                lambda d: robust_cost(zero, None, d, None)),
        "v": (lambda d: robust_cost(prob, lead, psi, v + d),
              lambda d: robust_cost(zero, None, None, d)),
    }
    worst_gap = 0.0
    margins = {"psi": [], "v": []}
    for _ in range(SADDLE_PROBES):
        d1 = _control(g, rng)
        for which, (cost, quad) in directions.items():
            # scale the probe so that |Q(d)| = |J0|: a first-order term left
            # by a shifted candidate is then not swamped by the quadratic one
            d = d1 * math.sqrt(max(abs(J0), 1e-30) / abs(quad(d1)))
            q = quad(d)
            dJ = cost(d) - J0
            margins[which].append(dJ)
            worst_gap = max(worst_gap, abs(dJ - q) / max(abs(J0), abs(q), 1e-300))
    worst_psi, worst_v = max(margins["psi"]), min(margins["v"])
    rows = [
        _row("saddle.quadratic_identity", worst_gap <= QUADRATIC_TOL,
             f"worst |dJ - Q(d)| / scale = {worst_gap:.3e} over "
             f"{SADDLE_PROBES} probes each for psi and v"),
        _row("saddle.inequalities", worst_psi <= tol_saddle and worst_v >= -tol_saddle,
             f"max J(psi+d)-J = {worst_psi:.3e}, min J(v+d)-J = {worst_v:.3e}, "
             f"tol {tol_saddle:.1e}"),
        _row("saddle.pipeline_probes", record.metrics["probe_violations"] == 0
             and bool(record.metrics["coupled_converged"]),
             f"probe violations {record.metrics['probe_violations']}, coupled converged "
             f"{record.metrics['coupled_converged']}"),
    ]
    return rows


def check_observability(cfg, record, run_dir, seed: int) -> list:
    n = int(cfg.options["n_observability_samples"])
    ratios = [_number(r["ratio"])
              for r in _read_csv(Path(run_dir) / "observability_samples.csv")]
    rows = [_row("observability.ratios_finite_positive",
                 len(ratios) == 3 * n and all(math.isfinite(r) and r > 0 for r in ratios),
                 f"{len(ratios)} ratios (expected {3 * n}), min {min(ratios, default=0):.3e}, "
                 f"max {max(ratios, default=0):.3e}")]
    g = cfg.grid
    coupling = stokes.Coupling.build(g, cfg.cutoff(), cfg.obs_set, cfg.robust.ell,
                                     cfg.robust.gamma, cfg.robust.mu)
    rng = np.random.default_rng([seed, 3])
    duality, _, _ = _duality(g, cfg.omega, coupling, VelocityField.zeros(g), cfg.solver,
                             _control(g, rng), rng)
    rows.append(_row("observability.duality", *duality))
    return rows


def _mms_exact(amp=0.1, pamp=0.05):
    """Velocity of the stream function amp e^-t sin^3(pi x) sin^3(pi y), and its forcing.

    The forcing is u_t - Lap u + grad p with p = pamp e^-t cos(pi x) cos(pi y),
    differentiated by hand here, apart from the pipeline's own formulas.
    Both callables return the pair (u, v).
    """
    pi = np.pi

    def velocity(x, y, t):
        sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
        k = 3.0 * amp * pi * np.exp(-t)
        return k * sx**3 * sy**2 * cy, -k * sx**2 * cx * sy**3

    def forcing(x, y, t):
        sx, cx, sy, cy = np.sin(pi * x), np.cos(pi * x), np.sin(pi * y), np.cos(pi * y)
        k = 3.0 * amp * pi * np.exp(-t)
        # (sin^3)'' and (sin^2 cos)'' over pi^2, in x and in y
        s3_xx, s3_yy = 3.0 * sx * (2.0 * cx**2 - sx**2), 3.0 * sy * (2.0 * cy**2 - sy**2)
        s2c_xx, s2c_yy = 2.0 * cx**3 - 7.0 * sx**2 * cx, 2.0 * cy**3 - 7.0 * sy**2 * cy
        u, v = velocity(x, y, t)
        lap_u = k * pi**2 * (s3_xx * sy**2 * cy + sx**3 * s2c_yy)
        lap_v = -k * pi**2 * (s2c_xx * sy**3 + sx**2 * cx * s3_yy)
        px = -pamp * np.exp(-t) * pi * sx * cy
        py = -pamp * np.exp(-t) * pi * cx * sy
        return -u - lap_u + px, -v - lap_v + py

    return velocity, forcing


def mms_error(grid: GridSpec) -> float:
    """Terminal L2 error of the forward solver against the exact solution."""
    velocity, forcing = _mms_exact()
    T = grid.T
    y0 = VelocityField.from_functions(grid, lambda x, y: velocity(x, y, 0.0)[0],
                                      lambda x, y: velocity(x, y, 0.0)[1])
    src = Trajectory.from_function(grid, lambda x, y, t: forcing(x, y, t)[0],
                                   lambda x, y, t: forcing(x, y, t)[1])
    traj = stokes.solve_forward(y0, stokes.ForcingAssembly(grid, extra_source=src))
    exact = VelocityField.from_functions(grid, lambda x, y: velocity(x, y, T)[0],
                                         lambda x, y: velocity(x, y, T)[1])
    return norm(traj[grid.nt] - exact)


def check_mms(cfg, record, run_dir, seed: int) -> list:
    table = _read_csv(Path(run_dir) / "convergence.csv")
    errs = [_number(r["error"]) for r in table]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    lo, hi = MMS_RATIO_RANGE
    rows = [_row("mms.error_ratios",
                 len(errs) == len(cfg.options["sizes"])
                 and all(lo <= r <= hi for r in ratios),
                 f"ratios {[round(r, 4) for r in ratios]} in [{lo}, {hi}]")]
    nx, nt = int(table[0]["nx"]), int(table[0]["nt"])
    e = mms_error(GridSpec(nx=nx, ny=nx, nt=nt, T=float(cfg.options["horizon"])))
    rows.append(_row("mms.coarse_error_recomputed",
                     abs(e - errs[0]) <= MMS_ERROR_RTOL * e,
                     f"nx={nx}: reported {errs[0]:.12e}, recomputed {e:.12e}"))
    return rows


CHECKS = {
    "nullcontrol": check_nullcontrol,
    "saddle": check_saddle,
    "carleman-check": check_observability,
    "convergence": check_mms,
}


def check(cfg, record, run_dir, seed: int) -> list:
    return CHECKS[cfg.experiment](cfg, record, run_dir, seed)
