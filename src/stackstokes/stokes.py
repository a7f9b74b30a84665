"""Time integration of forced Stokes/Navier-Stokes and the coupled optimality systems.

One forward step is implicit-Euler diffusion, explicit convection, and Leray
projection applied symmetrically:

    y^{n+1} = P S P (y^n - dt*C(y^n) + dt*F^{n+1}),    S = (I - dt*Lap)^{-1}

with P and S self-adjoint in the face inner product, so the one-step operator
P S P is its own transpose.  Every backward/adjoint integrator below is the
exact algebraic transpose of the corresponding forward chain; the discrete
duality identities therefore hold to solver tolerance rather than to
discretization order, and both primal and dual trajectories are divergence
free at every level.  Because the space-time quadrature is trapezoidal, the
exact transposes carry the trapezoid weights w_m (1/2 at the endpoints):
backward tracking sources are weighted by w_m and trajectories that represent
control gradients are the raw dual states divided by w_m.

The Picard sweeps of the coupled and adjoint solvers work on packed stacks
of all levels (see :func:`grid.face_views`) and use the identity

    P S P (y + dt F) = P S (y + dt P F)    whenever  P y = y,

which holds because P is linear and idempotent.  A sweep therefore forms
every level's source at once (masks, trapezoid weights, data), projects the
whole stack in one batched pass, and then takes one diffusion solve and one
projection per sequential step instead of two projections.  Every iterate
after the first is an output of P; the recursion starts from P(y0) (P(phi_T),
or 0), so that the first step, too, equals P S P applied to the unprojected
sum even when y0 carries the small divergence (up to 1e-10) that is not
projected away.  The stored level 0 stays y0 itself.  The transposed
convection of the adjoint's ``link`` term depends on the current iterate, so
it is projected inside its step.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowupError,
    CflError,
    ConfigurationError,
    ConvergenceError,
)
from .grid import (
    FaceMask,
    GridSpec,
    Region,
    ScalarField,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    face_views,
    h1_norm,
    packed_norm,
    project_div_free,
    project_div_free_with_potential,
    project_levels,
    traj_norm,
    trapezoid_weights,
)

__all__ = [
    "SolverOptions",
    "ForcingAssembly",
    "Coupling",
    "convection",
    "linearized_convection",
    "adjoint_coupling",
    "solve_forward",
    "solve_backward_adjoint",
    "solve_coupled_linear",
    "solve_coupled_nonlinear",
    "frozen_sources",
    "AdjointPair",
    "CoupledSolution",
    "control_gradient",
]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the time integrators and Picard loops."""

    convection_on: bool = False
    picard_tol: float = 1e-11
    picard_max: int = 200
    relax: float = 1.0
    store_pressure: bool = False
    blowup_norm: float = 1e6
    small_data_delta: float | None = None

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ConfigurationError("picard_tol must be positive")
        if not (0 < self.relax <= 1.0):
            raise ConfigurationError("relaxation factor must be in (0, 1]")
        if self.picard_max < 1:
            raise ConfigurationError("picard_max must be at least 1")


@dataclass
class ForcingAssembly:
    """The three forcing channels plus an optional extra source.

    The leader channel is restricted by the indicator of ``omega`` and the
    follower channel is weighted by the smooth cutoff ``chi``; both masks are
    applied here, which is the one canonical placement of the cutoff in the
    state equation.
    """

    grid: GridSpec
    leader: Trajectory | None = None
    follower: Trajectory | None = None
    disturbance: Trajectory | None = None
    extra_source: Trajectory | None = None
    omega: Region | None = None
    chi: SmoothCutoff | None = None

    def __post_init__(self):
        for name in ("leader", "follower", "disturbance", "extra_source"):
            t = getattr(self, name)
            if t is not None and t.grid != self.grid:
                raise ConfigurationError(f"{name} trajectory on a different grid")
        if self.leader is not None and self.omega is None:
            raise ConfigurationError("leader forcing requires its support region")
        if self.follower is not None and self.chi is None:
            raise ConfigurationError("follower forcing requires its cutoff")
        self._omega_mask = self.omega.face_indicator(self.grid) if self.omega else None
        self._chi_mask = self.chi.face_mask(self.grid) if self.chi else None

    def at_level(self, m: int) -> VelocityField:
        out = VelocityField.zeros(self.grid)
        if self.leader is not None:
            out = out + self.leader[m].mul_mask(self._omega_mask)
        if self.follower is not None:
            out = out + self.follower[m].mul_mask(self._chi_mask)
        if self.disturbance is not None:
            out = out + self.disturbance[m]
        if self.extra_source is not None:
            out = out + self.extra_source[m]
        return out


# ---------------------------------------------------------------------------
# convection, its linearization, and the exact transpose
# ---------------------------------------------------------------------------

def _dudx(u, hx):
    return (u[2:, :] - u[:-2, :]) / (2.0 * hx)


def _dudy(u_int, hy):
    # even ghost reflection: one-sided closure at the wall rows, so constant
    # fields have exactly zero advective derivative
    p = np.empty((u_int.shape[0], u_int.shape[1] + 2))
    p[:, 1:-1] = u_int
    p[:, 0] = u_int[:, 0]
    p[:, -1] = u_int[:, -1]
    return (p[:, 2:] - p[:, :-2]) / (2.0 * hy)


def _dvdy(v, hy):
    return (v[:, 2:] - v[:, :-2]) / (2.0 * hy)


def _dvdx(v_int, hx):
    p = np.empty((v_int.shape[0] + 2, v_int.shape[1]))
    p[1:-1, :] = v_int
    p[0, :] = v_int[0, :]
    p[-1, :] = v_int[-1, :]
    return (p[2:, :] - p[:-2, :]) / (2.0 * hx)


def _v_at_u(v):
    # v interpolated to interior u-faces, shape (nx-1, ny)
    return 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])


def _u_at_v(u):
    # u interpolated to interior v-faces, shape (nx, ny-1)
    return 0.25 * (u[:-1, :-1] + u[:-1, 1:] + u[1:, :-1] + u[1:, 1:])


def convection(y: VelocityField) -> VelocityField:
    """Advective term (y . grad) y with centered stencils and no-slip ghosts."""
    g = y.grid
    cu = np.zeros_like(y.u)
    cu[1:-1, :] = y.u[1:-1, :] * _dudx(y.u, g.hx) + _v_at_u(y.v) * _dudy(
        y.u[1:-1, :], g.hy
    )
    cv = np.zeros_like(y.v)
    cv[:, 1:-1] = _u_at_v(y.u) * _dvdx(y.v[:, 1:-1], g.hx) + y.v[:, 1:-1] * _dvdy(
        y.v, g.hy
    )
    return VelocityField(g, cu, cv)


def linearized_convection(y: VelocityField, dy: VelocityField) -> VelocityField:
    """Directional derivative of :func:`convection` at y in direction dy."""
    g = y.grid
    cu = np.zeros_like(y.u)
    cu[1:-1, :] = (
        dy.u[1:-1, :] * _dudx(y.u, g.hx)
        + _v_at_u(dy.v) * _dudy(y.u[1:-1, :], g.hy)
        + y.u[1:-1, :] * _dudx(dy.u, g.hx)
        + _v_at_u(y.v) * _dudy(dy.u[1:-1, :], g.hy)
    )
    cv = np.zeros_like(y.v)
    cv[:, 1:-1] = (
        _u_at_v(dy.u) * _dvdx(y.v[:, 1:-1], g.hx)
        + dy.v[:, 1:-1] * _dvdy(y.v, g.hy)
        + _u_at_v(y.u) * _dvdx(dy.v[:, 1:-1], g.hx)
        + y.v[:, 1:-1] * _dvdy(dy.v, g.hy)
    )
    return VelocityField(g, cu, cv)


def adjoint_coupling(y: VelocityField, z: VelocityField) -> VelocityField:
    """Exact transpose of the convection linearization: z -> (C'(y))^T z.

    This is the discrete counterpart of the transposed-gradient pairing minus
    back-advection, with i-th component  sum_j z_j d_i y_j - (y . grad) z_i,
    and satisfies <C'(y) d, z> = <d, adjoint_coupling(y, z)> exactly for
    fields with zero normal-boundary faces.
    """
    g = y.grid
    hx, hy = g.hx, g.hy
    a = z.u[1:-1, :]          # u-equation weights (interior rows)
    b = z.v[:, 1:-1]          # v-equation weights (interior cols)

    A = _dudx(y.u, hx)
    B = _dudy(y.u[1:-1, :], hy)
    C = _dvdx(y.v[:, 1:-1], hx)
    D = _dvdy(y.v, hy)
    ub = _u_at_v(y.u)
    vb = _v_at_u(y.v)

    out_u = np.zeros_like(y.u)
    # delta_u * A paired with a
    out_u[1:-1, :] += A * a
    # y_u * Dxc(delta_u) paired with a
    t = a * y.u[1:-1, :] / (2.0 * hx)
    out_u[2:, :] += t
    out_u[:-2, :] -= t
    # v_at_u(y) * Dyg(delta_u) paired with a
    t = a * vb / (2.0 * hy)
    pad = np.zeros((g.nx - 1, g.ny + 2))
    pad[:, 2:] += t
    pad[:, :-2] -= t
    gback = pad[:, 1:-1].copy()
    gback[:, 0] += pad[:, 0]
    gback[:, -1] += pad[:, -1]
    out_u[1:-1, :] += gback
    # u_at_v(delta) * C paired with b  (scatter to u faces)
    t = 0.25 * b * C
    out_u[:-1, :-1] += t
    out_u[:-1, 1:] += t
    out_u[1:, :-1] += t
    out_u[1:, 1:] += t
    out_u[0, :] = 0.0
    out_u[-1, :] = 0.0

    out_v = np.zeros_like(y.v)
    out_v[:, 1:-1] += D * b
    t = b * y.v[:, 1:-1] / (2.0 * hy)
    out_v[:, 2:] += t
    out_v[:, :-2] -= t
    t = b * ub / (2.0 * hx)
    pad = np.zeros((g.nx + 2, g.ny - 1))
    pad[2:, :] += t
    pad[:-2, :] -= t
    gback = pad[1:-1, :].copy()
    gback[0, :] += pad[0, :]
    gback[-1, :] += pad[-1, :]
    out_v[:, 1:-1] += gback
    t = 0.25 * a * B
    out_v[:-1, :-1] += t
    out_v[:-1, 1:] += t
    out_v[1:, :-1] += t
    out_v[1:, 1:] += t
    out_v[:, 0] = 0.0
    out_v[:, -1] = 0.0

    return VelocityField(g, out_u, out_v)


def _check_cfl(y: VelocityField, dt: float):
    g = y.grid
    speed = float(np.abs(y.u).max()) / g.hx + float(np.abs(y.v).max()) / g.hy
    if speed * dt > 1.0:
        raise CflError(
            f"advective CFL number {speed * dt:.3f} > 1; reduce dt "
            f"(currently {dt:.3e})",
            residual=speed * dt,
        )


def _closed_div_free(v: VelocityField) -> VelocityField:
    """``v`` with zero normal faces, Leray-projected if its divergence exceeds 1e-10."""
    v = v.apply_noslip()
    if divergence(v).max_abs() > 1e-10:
        v = project_div_free(v)
    return v


# ---------------------------------------------------------------------------
# forward solve
# ---------------------------------------------------------------------------

def solve_forward(
    y0: VelocityField,
    forcing: ForcingAssembly | None,
    opts: SolverOptions = SolverOptions(),
) -> Trajectory:
    """March the (Navier-)Stokes system forward from y0 with assembled forcing."""
    g = y0.grid
    if forcing is not None and forcing.grid != g:
        raise ConfigurationError("forcing assembled on a different grid")
    dt = g.dt

    y = _closed_div_free(y0)
    scale = max(y.max_abs(), 1.0)

    fields = [y]
    pressures = [ScalarField.zeros(g)] if opts.store_pressure else None
    for n in range(g.nt):
        rhs = y if forcing is None else y + dt * forcing.at_level(n + 1)
        if opts.convection_on:
            _check_cfl(y, dt)
            rhs = rhs - dt * convection(y)
        ystar = diffusion_solve(project_div_free(rhs), dt)
        y, phi = project_div_free_with_potential(ystar)
        if not y.max_abs() <= opts.blowup_norm * scale:  # also catches NaN
            raise BlowupError(
                f"forward solve blew up at step {n + 1}: |y| = {y.max_abs():.3e}",
                residual=y.max_abs(),
                iterations=n + 1,
            )
        fields.append(y)
        if pressures is not None:
            pressures.append(phi * (1.0 / dt))
    return Trajectory(g, fields, pressures)


# ---------------------------------------------------------------------------
# coupled optimality systems
# ---------------------------------------------------------------------------

@dataclass
class Coupling:
    """Geometry-dependent multipliers of the coupled optimality system."""

    grid: GridSpec
    k_mask: FaceMask        # gamma^-2 - ell^-2 * chi_O on faces
    chi_mask: FaceMask      # the smooth follower cutoff
    obs_mask: FaceMask      # indicator of the observation set O_d
    mu: float

    @classmethod
    def build(
        cls,
        grid: GridSpec,
        chi: SmoothCutoff,
        obs_region: Region,
        ell: float,
        gamma: float,
        mu: float,
    ) -> "Coupling":
        cm = chi.face_mask(grid)
        ginv = 0.0 if math.isinf(gamma) else gamma**-2
        linv = 0.0 if math.isinf(ell) else ell**-2
        k = FaceMask(ginv - linv * cm.on_u, ginv - linv * cm.on_v)
        return cls(grid, k, cm, obs_region.face_mask(grid), mu)


@dataclass
class CoupledSolution:
    y: Trajectory
    z: Trajectory
    iterations: int
    residual: float
    converged: bool


def _relative_change(new: Trajectory, old: Trajectory) -> float:
    num = traj_norm(new - old)
    den = max(traj_norm(new), 1e-300)
    return num / den


def _packed_data(g: GridSpec, *terms) -> np.ndarray | None:
    """dt * sum of ``traj * factors...`` over ``(traj, *factors)`` terms, packed.

    The data part of a sweep's sources, which stays the same from sweep to
    sweep.  Factors broadcast against a packed stack and None factors are
    skipped; so are terms without a trajectory, and None is returned if no
    term is left.
    """
    out = None
    for traj, *factors in terms:
        if traj is None:
            continue
        p = traj.packed()
        for f in factors:
            if f is not None:
                p *= f
        if out is None:
            out = p
        else:
            out += p
    if out is not None:
        out *= g.dt
    return out


def _march(grid: GridSpec, levels, cur: VelocityField, sources: np.ndarray,
           out: np.ndarray, link: Trajectory | None = None) -> VelocityField:
    """The sequential steps  y <- P S (y + G[m])  of one sweep, stored in ``out``.

    ``sources`` holds the dt-scaled sources G[m], already Leray-projected,
    and ``cur`` is divergence free, so each step equals P S P (y + G[m])
    with one projection instead of two.  ``out`` may be ``sources``: step m
    reads G[m] before it stores y[m].  ``link`` adds the transposed
    convection  -dt C'(link[m])^T y, which depends on the iterate and is
    projected inside the step.  Returns the last iterate.
    """
    dt = grid.dt
    g_u, g_v = face_views(sources, grid)
    o_u, o_v = face_views(out, grid)
    for m in levels:
        x = VelocityField._of(grid, cur.u + g_u[m], cur.v + g_v[m])
        if link is not None:
            x = x - dt * project_div_free(adjoint_coupling(link[m], cur))
        cur = project_div_free(diffusion_solve(x, dt))
        o_u[m] = cur.u
        o_v[m] = cur.v
    return cur


def _relaxed_update(it: np.ndarray, new: np.ndarray, relax: float, g: GridSpec):
    """it <- it + relax (new - it) in place; returns |it| and the norm of the change.

    ``new`` is overwritten by the change.
    """
    np.subtract(new, it, out=new)
    if relax < 1.0:
        new *= relax
    it += new
    return packed_norm(it, g), packed_norm(new, g)


def solve_coupled_linear(
    h: Trajectory | None,
    y0: VelocityField,
    yd: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions = SolverOptions(),
    omega: Region | None = None,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
    z_init: Trajectory | None = None,
) -> CoupledSolution:
    """Forward-backward Picard solve of the linear coupled optimality system.

    y marches forward driven by  h*1_omega + (gamma^-2 - ell^-2 chi_O) z + f1
    and z marches backward driven by  mu*(y - yd)*chi_Od + f2,  with z(T)
    small of order dt (the discrete tracking weight at the final level).
    The converged pair is the exact first-order system of the discrete
    minimax cost, which is what the gradient-consistency tests require.
    """
    g = coupling.grid
    w = trapezoid_weights(g.nt)[:, None]
    obs = coupling.obs_mask.packed()
    z_weight = g.dt * coupling.k_mask.packed()
    y_weight = g.dt * coupling.mu * obs
    omega_w = omega.face_indicator(g).packed() if omega is not None else None
    fwd_data = _packed_data(g, (h, omega_w), (f1,))
    bwd_data = _packed_data(g, (yd, -coupling.mu * obs, w), (f2,))

    y0p = _closed_div_free(y0)
    y0_packed = y0p.packed()
    y0_start = project_div_free(y0p)
    z = z_init.packed() if z_init is not None else np.zeros((g.nt + 1, g.n_faces))
    work = np.empty_like(z)   # the sweep's sources, then its output, in place

    def forward_sweep():
        # work <- y of the current z; level 0 stays y0p
        np.multiply(z[1:], z_weight, out=work[1:])
        if fwd_data is not None:
            work[1:] += fwd_data[1:]
        project_levels(work[1:], g)
        work[0] = y0_packed
        _march(g, range(1, g.nt + 1), y0_start, work, work)

    def backward_sweep():
        # work (= y) <- the z it drives; the raw backward state is w_m * z_m
        np.multiply(work, y_weight, out=work)
        np.multiply(work, w, out=work)
        if bwd_data is not None:
            work[:] += bwd_data
        project_levels(work, g)
        _march(g, range(g.nt, -1, -1), VelocityField.zeros(g), work, work)
        work[1:] *= 1.0 / w[1:]

    relax = opts.relax
    prev_res = math.inf
    residual = math.inf
    for it in range(1, opts.picard_max + 1):
        forward_sweep()
        backward_sweep()
        size, change = _relaxed_update(z, work, relax, g)
        residual = change / max(size, 1e-300)
        if not math.isfinite(residual):
            raise BlowupError(
                f"coupled linear solve produced a non-finite iterate at sweep {it}",
                residual=residual,
                iterations=it,
            )
        if residual <= opts.picard_tol:
            forward_sweep()
            return CoupledSolution(Trajectory.from_packed(g, work),
                                   Trajectory.from_packed(g, z), it, residual, True)
        if residual >= prev_res and relax > 0.0625:
            relax *= 0.5
        if size > opts.blowup_norm:
            break
        prev_res = residual
    raise ConvergenceError(
        "coupled linear solve did not reach tolerance "
        f"({residual:.3e} > {opts.picard_tol:.1e}) after {it} sweeps; the "
        "forward-backward sweep contracts only for large enough gamma and ell",
        residual=residual,
        iterations=it,
    )


def frozen_sources(y: Trajectory, z: Trajectory):
    """The nonlinear terms of the coupled system frozen at (y, z), as sources (f1, f2).

    f1 carries the state convection of the previous iterate: its level n+1
    drives the step that advances from level n.  f2 carries the backward
    coupling (z . grad^T) y - (y . grad) z; the raw backward state is
    w_m * z_m and vanishes above the last level.
    """
    g = y.grid
    w = trapezoid_weights(g.nt)
    f1 = Trajectory(
        g, [VelocityField.zeros(g)] + [-1.0 * convection(y[n]) for n in range(g.nt)]
    )
    f2 = Trajectory(
        g,
        [-1.0 * adjoint_coupling(y[m], z[m + 1] * w[m + 1]) for m in range(g.nt)]
        + [VelocityField.zeros(g)],
    )
    return f1, f2


def solve_coupled_nonlinear(
    h: Trajectory | None,
    y0: VelocityField,
    yd: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions,
    omega: Region | None = None,
) -> CoupledSolution:
    """Outer Picard on convection/coupling terms around the linear coupled solve.

    Convection in the state equation and the linearized coupling in the
    backward equation are frozen from the previous iterate and fed to
    :func:`solve_coupled_linear` as extra sources, so the converged pair
    satisfies the semi-implicit discretization of the nonlinear system.
    """
    if opts.small_data_delta is not None and h1_norm(y0) > opts.small_data_delta:
        raise ConfigurationError(
            f"initial state exceeds the configured small-data bound "
            f"{opts.small_data_delta:.3e} required by the nonlinear solver"
        )
    g = coupling.grid
    inner_opts = dataclasses.replace(opts, convection_on=False)
    sol = solve_coupled_linear(h, y0, yd, coupling, inner_opts, omega)
    for it in range(1, opts.picard_max + 1):
        worst = max(sol.y, key=lambda f: f.max_abs())
        _check_cfl(worst, g.dt)
        f1, f2 = frozen_sources(sol.y, sol.z)
        new = solve_coupled_linear(h, y0, yd, coupling, inner_opts, omega, f1, f2)
        change = max(
            _relative_change(new.y, sol.y),
            _relative_change(new.z, sol.z) if traj_norm(sol.z) > 0 else 0.0,
        )
        sol = new
        if change <= opts.picard_tol:
            return CoupledSolution(sol.y, sol.z, it, change, True)
    raise ConvergenceError(
        "nonlinear coupled solve did not converge; reduce the data size or "
        "the horizon (small-data regime required)",
        residual=change,
        iterations=opts.picard_max,
    )


# ---------------------------------------------------------------------------
# backward adjoint pair
# ---------------------------------------------------------------------------

@dataclass
class AdjointPair:
    phi: Trajectory
    theta: Trajectory
    iterations: int
    residual: float
    converged: bool


def solve_backward_adjoint(
    phiT: VelocityField,
    g1: Trajectory | None,
    g2: Trajectory | None,
    link: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions = SolverOptions(),
) -> AdjointPair:
    """Coupled adjoint pair: phi backward from phi(T), theta forward from 0.

    phi is driven by g1 + mu*theta*chi_Od and theta by g2 + (gamma^-2 -
    ell^-2 chi_O) phi; the pair is iterated in alternating Picard sweeps
    until self-consistent.  The recursions are the exact transpose of
    :func:`solve_coupled_linear`, including the trapezoid weights, so
    pairing a control with ``control_gradient`` of the result reproduces the
    forward terminal functional exactly.  ``link`` adds the transposed
    convection linearization around a frozen trajectory (nonlinear case).
    Level 0 of ``phi`` stores the sensitivity with respect to the initial
    state, i.e. the exact dual pairing partner of y(0).
    """
    g = coupling.grid
    w = trapezoid_weights(g.nt)[:, None]
    theta_weight = g.dt * coupling.mu * coupling.obs_mask.packed()
    phi_weight = g.dt * coupling.k_mask.packed()
    phi_data = _packed_data(g, (g1,))
    theta_data = _packed_data(g, (g2,))
    phi_start = project_div_free(_closed_div_free(phiT))

    theta = np.zeros((g.nt + 1, g.n_faces))
    work = np.empty_like(theta)   # the sweep's sources, then its output, in place

    def phi_sweep():
        # work <- phi of the current theta
        np.multiply(theta, theta_weight, out=work)
        np.multiply(work, w, out=work)
        if phi_data is not None:
            work[:] += phi_data
        project_levels(work[1:], g)
        # the transposed convection acts from the second step on
        cur = _march(g, (g.nt,), phi_start, work, work)
        _march(g, range(g.nt - 1, 0, -1), cur, work, work, link)
        work[0] = work[1]
        if link is not None:
            u, v = face_views(work, g)
            a = adjoint_coupling(link[0], VelocityField(g, u[1], v[1]))
            u[0] -= g.dt * a.u
            v[0] -= g.dt * a.v

    def theta_sweep():
        # work (= phi) <- the theta it drives
        np.multiply(work[1:], phi_weight, out=work[1:])
        work[1:] *= 1.0 / w[1:]
        if theta_data is not None:
            work[1:] += theta_data[1:]
        project_levels(work[1:], g)
        work[0] = 0.0
        _march(g, range(1, g.nt + 1), VelocityField.zeros(g), work, work)

    relax = opts.relax
    prev_res = math.inf
    residual = math.inf
    for it in range(1, opts.picard_max + 1):
        phi_sweep()
        phi0_finite = bool(np.isfinite(work[0]).all())
        theta_sweep()
        size, change = _relaxed_update(theta, work, relax, g)
        if not (math.isfinite(size) and phi0_finite):
            raise BlowupError(
                f"adjoint pair produced a non-finite iterate at sweep {it}",
                residual=size,
                iterations=it,
            )
        residual = change / size if size > 0 else 0.0
        if residual <= opts.picard_tol:
            phi_sweep()
            return AdjointPair(Trajectory.from_packed(g, work),
                               Trajectory.from_packed(g, theta), it, residual, True)
        if residual >= prev_res and relax > 0.0625:
            relax *= 0.5
        prev_res = residual
    raise ConvergenceError(
        "adjoint pair did not become self-consistent "
        f"({residual:.3e} > {opts.picard_tol:.1e}); gamma or ell too small "
        "or mu too large",
        residual=residual,
        iterations=opts.picard_max,
    )


def control_gradient(adj_phi: Trajectory, mask: FaceMask | None = None) -> Trajectory:
    """Gradient representer of a control from the adjoint state.

    Divides interior levels by the trapezoid weights (only the endpoints
    differ from 1) and zeroes level 0, whose control slot never acts on the
    state; the result pairs exactly with perturbations under the trapezoidal
    space-time inner product.
    """
    g = adj_phi.grid
    w = trapezoid_weights(g.nt)
    fields = [VelocityField.zeros(g)]
    for m in range(1, g.nt + 1):
        f = adj_phi[m] * (1.0 / w[m])
        if mask is not None:
            f = f.mul_mask(mask)
        fields.append(f)
    return Trajectory(g, fields)
