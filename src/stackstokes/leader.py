"""Minimal-norm leader control by penalized terminal steering.

The exact terminal constraint y(T) = 0 of the hierarchic problem is replaced
by the strictly convex quadratic

    min_h  1/2 |h|^2_{omega x (0,T)}  +  1/(2 eps) |y(T; h)|^2,

where y is the first component of the coupled optimality system.  The map
h -> y(T) is affine, so the minimizer is found by conjugate gradients on the
normal equations; an epsilon schedule documents the vanishing-penalty limit
instead of claiming exact null control.  The nonlinear (small-data) variant
freezes the quadratic terms from the previous iterate, playing the role of
the extra sources f1, f2 of the linear theory.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError, NumericalError
from .grid import (
    Trajectory,
    VelocityField,
    inner,
    inner_space_time,
    norm,
    traj_norm,
)
from .saddle import SaddleProblem
from .stokes import (
    CoupledSolution,
    control_gradient,
    frozen_sources,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_coupled_nonlinear,
)

__all__ = [
    "PenaltyConfig",
    "LeaderResult",
    "control_to_terminal",
    "penalized_gradient",
    "solve_null_control_cg",
    "solve_null_control_nonlinear",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Terminal-penalty weight and CG controls."""

    epsilon: float = 1e-4
    cg_tol: float = 1e-8
    cg_max: int = 400
    epsilon_schedule: tuple = ()

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError("penalty epsilon must be positive")
        if self.cg_tol <= 0 or self.cg_max < 1:
            raise ConfigurationError("bad CG controls")
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if any(e <= 0 for e in sched):
            raise ConfigurationError("epsilon schedule entries must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ConfigurationError("epsilon schedule must be strictly decreasing")
        object.__setattr__(self, "epsilon_schedule", sched)


@dataclass
class LeaderResult:
    h: Trajectory
    terminal_norm: float
    control_norm: float
    cg_iters: int
    objective: float
    epsilon: float
    free_terminal_norm: float        # |y(T)| of the coupled linear solve at h = 0
    final_solution: CoupledSolution  # the coupled linear solve at the final h
    history: list = field(default_factory=list)   # rows of EpsilonRow
    outer_iterations: int = 0
    objective_curve: list = field(default_factory=list)


@dataclass(frozen=True)
class EpsilonRow:
    epsilon: float
    terminal_norm: float
    control_norm: float
    cg_iters: int
    objective: float


def _coupled(prob: SaddleProblem, h, f1, f2):
    return solve_coupled_linear(
        h, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega,
        f1=f1, f2=f2,
    )


def control_to_terminal(prob: SaddleProblem, h, f1=None, f2=None) -> VelocityField:
    """Final-time state of the coupled linear system (affine in h)."""
    # a copy, so that keeping y(T) does not keep the whole trajectory alive
    return _coupled(prob, h, f1, f2).y[prob.grid.nt].copy()


def penalized_gradient(prob: SaddleProblem, h: Trajectory, cfg: PenaltyConfig) -> Trajectory:
    """Gradient of the penalized objective: h + 1_omega * phi, phi(T) = y(T)/eps."""
    yT = control_to_terminal(prob, h)
    return h.mul_mask(prob._omega_mask) + _terminal_dual_lift(prob, yT * (1.0 / cfg.epsilon))


def _terminal_dual_lift(prob: SaddleProblem, w: VelocityField) -> Trajectory:
    """Transposition lift: the omega-restricted dual of the terminal map."""
    adj = solve_backward_adjoint(w, None, None, None, prob.coupling, prob.opts)
    return control_gradient(adj.phi, prob._omega_mask)


def _homogeneous_problem(prob: SaddleProblem) -> SaddleProblem:
    """The same geometry with zero data: carrier of the linear part of h -> y(T)."""
    return dataclasses.replace(prob, y0=VelocityField.zeros(prob.grid), yd=None)


def solve_null_control_cg(
    prob: SaddleProblem,
    cfg: PenaltyConfig,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
    h_start: Trajectory | None = None,
) -> LeaderResult:
    """Conjugate-gradient minimization of the penalized terminal objective.

    Runs once per entry of the epsilon schedule (warm started), or once with
    cfg.epsilon when no schedule is given.  Iterates stay supported on omega
    by construction; the per-iteration objective is recorded and is
    non-increasing up to round-off.
    """
    g = prob.grid
    epsilons = cfg.epsilon_schedule or (cfg.epsilon,)
    hom = _homogeneous_problem(prob)
    omask = prob._omega_mask

    free_T = control_to_terminal(prob, None, f1, f2)
    h = (h_start.mul_mask(omask) if h_start is not None else Trajectory.zeros(g))
    history = []
    curve_all = []
    total_iters = 0

    for eps in epsilons:
        warm = traj_norm(h) > 0
        lam_h = control_to_terminal(hom, h) if warm else VelocityField.zeros(g)

        def objective(hh, lam):
            yT = free_T + lam
            return 0.5 * inner_space_time(hh, hh) + 0.5 / eps * inner(yT, yT)

        rhs = _terminal_dual_lift(hom, free_T * (-1.0 / eps))
        # residual r = rhs - A h with A = I + (1/eps) * Lambda^T Lambda
        if warm:
            r = rhs - h - _terminal_dual_lift(hom, lam_h * (1.0 / eps))
        else:
            r = rhs.copy()
        rhs_norm = traj_norm(rhs)
        curve = [objective(h, lam_h)]
        if rhs_norm == 0.0:
            h = Trajectory.zeros(g)
            lam_h = VelocityField.zeros(g)
            history.append(EpsilonRow(eps, norm(free_T), 0.0, 0, objective(h, lam_h)))
            continue
        p = r.copy()
        step = np.empty_like(p.data)
        rz = inner_space_time(r, r)
        it = 0
        while it < cfg.cg_max and math.sqrt(rz) > cfg.cg_tol * rhs_norm:
            it += 1
            lam_p = control_to_terminal(hom, p)
            # A p built in the lift's own stack: one trajectory fewer per iteration
            Ap = _terminal_dual_lift(hom, lam_p * (1.0 / eps))
            Ap.data += p.data
            pAp = inner_space_time(p, Ap)
            if not math.isfinite(pAp) or pAp <= 0:
                raise NumericalError(
                    f"CG stagnated: curvature {pAp:.3e} at iteration {it}",
                    residual=math.sqrt(rz),
                )
            alpha = rz / pAp
            # h (a masked copy of h_start), lam_h, r and p own their data:
            # update in place, through one work stack
            np.multiply(p.data, alpha, out=step)
            h.data += step
            lam_h.data += lam_p.data * alpha
            np.multiply(Ap.data, alpha, out=step)
            r.data -= step
            rz_new = inner_space_time(r, r)
            p.data *= rz_new / rz
            p.data += r.data
            rz = rz_new
            curve.append(objective(h, lam_h))
        if math.sqrt(rz) > cfg.cg_tol * rhs_norm:
            raise ConvergenceError(
                f"CG did not converge within {cfg.cg_max} iterations "
                f"(residual {math.sqrt(rz):.3e})",
                residual=math.sqrt(rz),
                iterations=cfg.cg_max,
            )
        total_iters += it
        yT = free_T + lam_h
        history.append(
            EpsilonRow(eps, norm(yT), traj_norm(h), it, curve[-1])
        )
        curve_all.append(curve)

    final = history[-1]
    # exact re-solve so the stored invariant objective = |h|^2/2 + |y(T)|^2/(2 eps)
    # holds on the reported fields
    sol = _coupled(prob, h, f1, f2)
    term = norm(sol.y[g.nt])
    ctrl = traj_norm(h)
    return LeaderResult(
        h=h,
        terminal_norm=term,
        control_norm=ctrl,
        cg_iters=total_iters,
        objective=0.5 * ctrl**2 + 0.5 / final.epsilon * term**2,
        epsilon=final.epsilon,
        free_terminal_norm=norm(free_T),
        final_solution=sol,
        history=history,
        objective_curve=curve_all[-1] if curve_all else [],
    )


def solve_null_control_nonlinear(
    prob: SaddleProblem,
    cfg: PenaltyConfig,
    outer_tol: float = 1e-6,
    outer_max: int = 25,
) -> LeaderResult:
    """Leader control for the nonlinear coupled system at small data.

    Outer fixed-point loop: freeze the convection/coupling terms from the
    previous nonlinear solve (they act as the sources f1, f2 of the linear
    theory), recompute the penalized control, re-solve the nonlinear system,
    and repeat until the control stabilizes.
    """
    # solve_coupled_nonlinear refuses an initial state above small_data_delta
    sol = solve_coupled_nonlinear(
        None, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega
    )
    h_prev: Trajectory | None = None
    for it in range(1, outer_max + 1):
        f1, f2 = frozen_sources(sol.y, sol.z)
        result = solve_null_control_cg(prob, cfg, f1, f2, h_start=h_prev)
        if h_prev is None and result.control_norm == 0.0:
            # nothing to steer: the zero control is already stationary
            result.outer_iterations = it
            return result
        sol = solve_coupled_nonlinear(
            result.h, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega
        )
        if h_prev is not None:
            change = traj_norm(result.h - h_prev) / max(traj_norm(result.h), 1e-300)
            if change <= outer_tol:
                result.outer_iterations = it
                result.terminal_norm = norm(sol.y[prob.grid.nt])
                result.objective = (
                    0.5 * result.control_norm**2
                    + 0.5 / result.epsilon * result.terminal_norm**2
                )
                return result
        h_prev = result.h
    raise ConvergenceError(
        "outer null-control loop did not stabilize; reduce the initial-state "
        "size (the construction is local: small data required)",
        iterations=outer_max,
    )
