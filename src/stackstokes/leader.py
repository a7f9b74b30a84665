"""Minimal-norm leader control by penalized terminal steering.

The exact terminal constraint y(T) = 0 of the hierarchic problem is replaced
by the strictly convex quadratic

    min_h  1/2 |h|^2_{omega x (0,T)}  +  1/(2 eps) |y(T; h)|^2,

where y is the first component of the coupled optimality system.  The map
h -> y(T) is affine, so the minimizer solves the normal equations; one shifted
conjugate-gradient run solves them at every epsilon of a schedule, which
documents the vanishing-penalty limit instead of claiming exact null control.
The nonlinear (small-data) variant is a fixed-point loop from a warm start:
it freezes the quadratic terms at the current control, playing the role of
the extra sources f1, f2 of the linear theory, and tests every iterate.

The two solves of every CG iteration run a fixed number k of Picard sweeps,
chosen from the contraction of the exact free response and run at the relax
it ended at: a k-sweep solve and a k-sweep adjoint pair are exact transposes,
so the CG runs on one SPD operator L_k^T L_k + eps.  The exact re-solve at its
h checks L_k h against L h; while they differ by more than cg_tol |y_free(T)|,
or that solve's own last change, the CG runs again at 2k.  Every other solve
runs to picard_tol.  The nonlinear variant's outer iterations invert the
linear system's L^T L + eps, so the linear control can start the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

_SWEEP_ERROR = 1e-5  # the error rho^k that the k-sweep solves of a CG iteration may leave


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
        if sched and sched[-1] != self.epsilon:  # the CG solves at the schedule's last
            raise ConfigurationError(f"penalty epsilon {self.epsilon!r} must be the last "
                                     f"entry of the epsilon schedule {sched!r}")
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


def _coupled(prob: SaddleProblem, h, f1, f2, sweeps=None):
    return solve_coupled_linear(h, prob.y0, prob.yd, prob.coupling, prob.opts,
                                omega=prob.omega, f1=f1, f2=f2, sweeps=sweeps)


def control_to_terminal(prob: SaddleProblem, h, f1=None, f2=None, sweeps=None) -> VelocityField:
    """Final-time state of the coupled linear system (affine in h); ``sweeps`` fixes
    the sweep count of :func:`~stackstokes.stokes.solve_coupled_linear`."""
    # a copy, so that keeping y(T) does not keep the whole trajectory alive
    return _coupled(prob, h, f1, f2, sweeps).y[prob.grid.nt].copy()


def penalized_gradient(prob: SaddleProblem, h: Trajectory, cfg: PenaltyConfig) -> Trajectory:
    """Gradient of the penalized objective: h + 1_omega * phi, phi(T) = y(T)/eps."""
    yT = control_to_terminal(prob, h)
    return h.mul_mask(prob._omega_mask) + _terminal_dual_lift(prob, yT * (1.0 / cfg.epsilon))


def _terminal_dual_lift(prob: SaddleProblem, w: VelocityField, sweeps=None) -> Trajectory:
    """Transposition lift: the omega-restricted dual of the terminal map."""
    adj = solve_backward_adjoint(w, None, None, None, prob.coupling, prob.opts, sweeps=sweeps)
    return control_gradient(adj.phi, prob._omega_mask)


def _free_response(prob: SaddleProblem, f1, f2) -> tuple:
    """y(T) of the exact solve at h = 0, and the zero-data problem at the relax that solve
    ended at and the sweep count k that the CG's solves run on: the smallest k >= 2 with
    rho^k <= _SWEEP_ERROR, rho = residual^(1/(sweeps - 1)), and no more than its sweeps."""
    free, hom = _coupled(prob, None, f1, f2), prob.zero_data
    rho = free.residual ** (1 / max(free.iterations - 1, 1))  # 0 for zero data
    k = min(math.ceil(math.log(_SWEEP_ERROR) / math.log(rho)), free.iterations) if rho else 2
    if free.relax != hom.opts.relax:
        hom = replace(hom, opts=replace(hom.opts, relax=free.relax))
    return free.y[prob.grid.nt].copy(), hom, max(2, k)


def solve_null_control_cg(
    prob: SaddleProblem,
    cfg: PenaltyConfig,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
    h_start: Trajectory | None = None,
) -> LeaderResult:
    """Shifted conjugate gradients: the minimizer at every epsilon of the schedule
    (or at cfg.epsilon alone) from one Krylov space.

    Scaled by eps, each minimizer solves (L^T L + eps) h = b = -L^T y_free(T),
    L the linear part of h -> y(T).  Plain CG runs on the seed, the smallest
    eps; the residual of the shift s = eps - seed stays collinear, zeta r, and
    each eps follows through zeta's recurrence (Jegerlehner, hep-lat/9612014;
    Frommer, Computing 70, 2003).  An eps stops once |zeta| |r| <= cg_tol |b|,
    the run with the seed.  h_start warm-starts a single eps.  Iterates stay
    supported on omega; the seed's objective is recorded per iteration.
    """
    g = prob.grid
    epsilons = cfg.epsilon_schedule or (cfg.epsilon,)
    if h_start is not None and len(epsilons) > 1:
        raise ConfigurationError("a warm start takes one epsilon, not a schedule: the "
                                 "shifted residuals are collinear only from h = 0")
    seed, hom = epsilons[-1], prob.zero_data
    free_T, fixed, sweeps = _free_response(prob, f1, f2)
    b = _terminal_dual_lift(hom, free_T * -1.0)  # b, or with h_start the residual there
    tol = cfg.cg_tol * traj_norm(b)
    h_0, lam_0 = Trajectory.zeros(g), VelocityField.zeros(g)  # lam_0 = L h_0
    if h_start is not None:
        h_0 = h_start.mul_mask(prob._omega_mask)
        lam_0 = control_to_terminal(hom, h_0)
        b.data -= _terminal_dual_lift(hom, lam_0).data + seed * h_0.data
    while True:  # CG on L_k^T L_k + eps, k = sweeps, until L_k h is L h to its tolerance
        H = np.zeros((len(epsilons), *b.data.shape))  # one h per epsilon, the seed last
        H[-1] = h_0.data
        h, r, lam_h = Trajectory(g, H[-1]), b.copy(), lam_0.copy()  # r and lam_h = L_k h
        P = np.repeat(r.data[None], len(epsilons), axis=0)  # the search directions
        p = Trajectory(g, P[-1])
        zeta, zeta_old, iters = [1.0] * len(H), [1.0] * len(H), [None] * len(H)
        alpha_old, beta_old, it = 1.0, 0.0, 0
        step = np.empty_like(r.data)
        rz = inner_space_time(r, r)
        curve = []
        while True:
            yT = free_T + lam_h
            curve.append(0.5 * inner_space_time(h, h) + 0.5 / seed * inner(yT, yT))
            for i, z in enumerate(zeta):
                if iters[i] is None and abs(z) * math.sqrt(rz) <= tol:
                    iters[i] = it  # a converged row stops: its zeta keeps shrinking
            if iters[-1] is not None or it == cfg.cg_max:
                break
            it += 1
            lam_p = control_to_terminal(fixed, p, sweeps=sweeps)
            # A p built in the lift's own stack: one trajectory fewer per iteration
            Ap = _terminal_dual_lift(fixed, lam_p, sweeps)
            np.multiply(p.data, seed, out=step)
            Ap.data += step
            pAp = inner_space_time(p, Ap)
            if not math.isfinite(pAp) or pAp <= 0:
                raise NumericalError(f"CG stagnated: curvature {pAp:.3e} at iteration {it}",
                                     residual=math.sqrt(rz))
            alpha = rz / pAp
            lam_h.data += lam_p.data * alpha
            np.multiply(Ap.data, alpha, out=step)
            r.data -= step
            rz, rz_old = inner_space_time(r, r), rz
            beta = rz / rz_old
            # every live row in place through one work stack; at s = 0 the factors
            # are exactly 1, so the seed's row makes plain CG's own updates
            for i, eps in enumerate(epsilons):
                if iters[i] is not None:
                    continue
                z, zo = zeta[i], zeta_old[i]
                zeta_old[i] = z
                zeta[i] = z * zo * alpha_old / (alpha * beta_old * (zo - z)
                                                + zo * alpha_old * (1.0 + alpha * (eps - seed)))
                ratio = zeta[i] / z
                np.multiply(P[i], alpha * ratio, out=step)
                H[i] += step
                P[i] *= beta * ratio * ratio
                np.multiply(r.data, zeta[i], out=step)
                P[i] += step
            alpha_old, beta_old = alpha, beta
        if iters[-1] is None:
            raise ConvergenceError(f"CG did not converge within {cfg.cg_max} iterations "
                                   f"(residual {math.sqrt(rz):.3e})",
                                   residual=math.sqrt(rz), iterations=cfg.cg_max)
        # exact re-solves: each objective |h|^2/2 + |y(T)|^2/(2 eps) holds on its fields
        terminals = [control_to_terminal(prob, Trajectory(g, row), f1, f2) for row in H[:-1]]
        sol = _coupled(prob, h, f1, f2)
        miss = norm(sol.y[g.nt] - free_T - lam_h)  # of L_k h against L h, to the exact's own
        if miss <= max(cfg.cg_tol, sol.residual) * norm(free_T):
            break
        sweeps *= 2  # past picard_max, the first product raises ConvergenceError
    history = []
    for eps, row, yT, k in zip(epsilons, H, [*terminals, sol.y[g.nt]], iters):
        term, ctrl = norm(yT), traj_norm(Trajectory(g, row))
        history.append(EpsilonRow(eps, term, ctrl, k, 0.5 * ctrl**2 + 0.5 / eps * term**2))
    last = history[-1]
    return LeaderResult(h=h, terminal_norm=last.terminal_norm, control_norm=last.control_norm,
                        cg_iters=it, objective=last.objective, epsilon=seed,
                        free_terminal_norm=norm(free_T), final_solution=sol, history=history,
                        objective_curve=curve)


def solve_null_control_nonlinear(
    prob: SaddleProblem,
    cfg: PenaltyConfig,
    outer_tol: float = 1e-6,
    outer_max: int = 25,
    h_start: Trajectory | None = None,
) -> LeaderResult:
    """Leader control for the nonlinear coupled system at small data.

    Outer fixed-point loop from ``h_start`` (such as the linear system's
    control; None is h = 0): freeze the convection/coupling terms of the
    nonlinear solve at the current control (the sources f1, f2 of the linear
    theory), recompute the penalized control by a CG started there, and stop
    once it moves less than ``outer_tol`` from the control it started from.
    """
    h = h_start
    # solve_coupled_nonlinear refuses an initial state above small_data_delta
    sol = solve_coupled_nonlinear(h, prob.y0, prob.yd, prob.coupling, prob.opts,
                                  omega=prob.omega)
    for it in range(1, outer_max + 1):
        f1, f2 = frozen_sources(sol.y, sol.z)
        result = solve_null_control_cg(prob, cfg, f1, f2, h_start=h)
        sol = solve_coupled_nonlinear(
            result.h, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega
        )
        step = result.h if h is None else result.h - h
        h = result.h
        if traj_norm(step) / max(traj_norm(h), 1e-300) <= outer_tol:
            result.outer_iterations = it
            result.terminal_norm = norm(sol.y[prob.grid.nt])
            result.objective = (
                0.5 * result.control_norm**2
                + 0.5 / result.epsilon * result.terminal_norm**2
            )
            return result
    raise ConvergenceError(
        "outer null-control loop did not stabilize; reduce the initial-state "
        "size (the construction is local: small data required)",
        iterations=outer_max,
    )
