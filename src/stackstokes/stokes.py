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

All three integrators (the forward solve and the sweeps of the coupled and
adjoint solvers) step through one march, :func:`_march`, on packed stacks
of consecutive levels, using the identity

    P S P (y + dt F) = P S (y + dt P F)    whenever  P y = y,

which holds because P is linear and idempotent.  A solver forms every
level's source at once (masks, trapezoid weights, data) and hands the
march the unprojected stack.  The march runs in the coordinates c = Q^T y
of an orthonormal basis Q of the divergence-free space (see
:mod:`stackstokes.grid`), which absorb the projection: each step is
c <- H (c + Q^T dt F)  with H = Q^T S Q.  Every iterate after the first is
an output of P; the recursion starts from P(y0) (P(phi_T), or 0), so that
the first step, too, equals P S P applied to the unprojected sum even when
y0 carries the small divergence (up to 1e-10) that is not projected away.
The stored level 0 stays y0 itself.  A term that depends on the previous
iterate is evaluated on the faces, at Q c mapped back one level at a time,
and enters the step as  -dt Q^T term.  Convection and its transpose are
such march terms in every solver, the coupled one included: the forward
marches add the convection of the previous level, and the backward marches
add the transposed linearization around the y of the same sweep (the
coupled solve) or around the adjoint's ``link``.

The forward solve has two entry points on one loop, :func:`_forward`,
which marches levels 1..nt in blocks of
:func:`~stackstokes.grid.levels_per_block` levels, carrying the V
coordinates from block to block, and checks the blow-up bound of each block
once it is marched.  :func:`solve_forward` takes an assembled forcing and
returns the whole trajectory: its blocks are views of the dt-scaled forcing
stack, which receives the states.  :func:`solve_forward_terminal` takes
the forcing as functions of (x, y, t) and returns only y(T): it samples
and dt-scales one block of levels at a time, as
:meth:`~stackstokes.grid.Trajectory.from_function` samples them, and maps
only the last block back to the faces.  Both entry points march the same
blocks through the same steps, so y(T) is the same to the bit, and so are
the step and message of a BlowupError.
"""

from __future__ import annotations

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
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    divergence,
    h1_norm,
    levels_per_block,
    project_div_free,
    sample_levels,
    traj_norm,
    trapezoid_weights,
    v_coordinates,
    v_step,
    v_velocities,
)

__all__ = [
    "SolverOptions",
    "ForcingAssembly",
    "Coupling",
    "convection",
    "linearized_convection",
    "adjoint_coupling",
    "solve_forward",
    "solve_forward_terminal",
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
        self._omega_mask = self.omega.face_indicator(self.grid).data if self.omega else None
        self._chi_mask = self.chi.face_mask(self.grid).data if self.chi else None

    def sources(self) -> np.ndarray | None:
        """dt times the summed forcing of every level as one packed stack (None if unforced)."""
        return _packed_data(self.grid, (self.leader, self._omega_mask),
                            (self.follower, self._chi_mask),
                            (self.disturbance,), (self.extra_source,))


# ---------------------------------------------------------------------------
# convection, its linearization, and the exact transpose
# ---------------------------------------------------------------------------

def _diff(a, h, axis):
    """Central difference along ``axis`` at the points inside the two ends."""
    s = a.swapaxes(0, axis)
    return ((s[2:] - s[:-2]) / (2.0 * h)).swapaxes(0, axis)


def _diff_T(t, h, axis, out):
    """Add the transpose of :func:`_diff` applied to ``t`` into ``out``."""
    s, o = (t / (2.0 * h)).swapaxes(0, axis), out.swapaxes(0, axis)
    o[2:] += s
    o[:-2] -= s


def _diff_closed(a, h, axis):
    """Central difference along ``axis`` at every point, with even ghost reflection:
    a one-sided closure at the two ends, so constant fields have exactly zero
    advective derivative."""
    s = a.swapaxes(0, axis)
    p = np.empty((s.shape[0] + 2,) + s.shape[1:])
    p[1:-1] = s
    p[0] = s[0]
    p[-1] = s[-1]
    return ((p[2:] - p[:-2]) / (2.0 * h)).swapaxes(0, axis)


def _diff_closed_T(t, h, axis, out):
    """Add the transpose of :func:`_diff_closed` applied to ``t`` into ``out``:
    the ghost rows fold back onto the end rows they reflect."""
    s = (t / (2.0 * h)).swapaxes(0, axis)
    pad = np.zeros((s.shape[0] + 2,) + s.shape[1:])
    pad[2:] += s
    pad[:-2] -= s
    back = pad[1:-1].copy()
    back[0] += pad[0]
    back[-1] += pad[-1]
    out += back.swapaxes(0, axis)


def _corner_avg(a):
    """The average of the four faces around each interior corner: v at the
    interior u faces, or u at the interior v faces."""
    return 0.25 * (a[:-1, :-1] + a[:-1, 1:] + a[1:, :-1] + a[1:, 1:])


def _corner_avg_T(t, out):
    """Add the transpose of :func:`_corner_avg` applied to ``t`` into ``out``."""
    s = 0.25 * t
    out[:-1, :-1] += s
    out[:-1, 1:] += s
    out[1:, :-1] += s
    out[1:, 1:] += s


def _advect(a: VelocityField, b: VelocityField) -> VelocityField:
    """The bilinear advection (a . grad) b with centered stencils and no-slip
    ghosts; zero on the normal-boundary faces."""
    g = a.grid
    out = VelocityField.zeros(g)
    out.u[1:-1, :] = (a.u[1:-1, :] * _diff(b.u, g.hx, 0)
                      + _corner_avg(a.v) * _diff_closed(b.u[1:-1, :], g.hy, 1))
    out.v[:, 1:-1] = (_corner_avg(a.u) * _diff_closed(b.v[:, 1:-1], g.hx, 0)
                      + a.v[:, 1:-1] * _diff(b.v, g.hy, 1))
    return out


def convection(y: VelocityField) -> VelocityField:
    """Advective term (y . grad) y with centered stencils and no-slip ghosts."""
    return _advect(y, y)


def linearized_convection(y: VelocityField, dy: VelocityField) -> VelocityField:
    """Directional derivative of :func:`convection` at y in direction dy."""
    return _advect(dy, y) + _advect(y, dy)


def adjoint_coupling(y: VelocityField, z: VelocityField) -> VelocityField:
    """Exact transpose of the convection linearization: z -> (C'(y))^T z.

    This is the discrete counterpart of the transposed-gradient pairing minus
    back-advection, with i-th component  sum_j z_j d_i y_j - (y . grad) z_i,
    and satisfies <C'(y) d, z> = <d, adjoint_coupling(y, z)> exactly for
    fields with zero normal-boundary faces.  Each component of the result adds
    the transposes of the four terms of C'(y) d = (d . grad) y + (y . grad) d
    in which that component of d appears.
    """
    g = y.grid
    a = z.u[1:-1, :]          # u-equation weights (interior rows)
    b = z.v[:, 1:-1]          # v-equation weights (interior cols)
    out = VelocityField.zeros(g)
    u, v = out.u, out.v
    u[1:-1, :] += _diff(y.u, g.hx, 0) * a
    _diff_T(a * y.u[1:-1, :], g.hx, 0, u)
    _diff_closed_T(a * _corner_avg(y.v), g.hy, 1, u[1:-1, :])
    _corner_avg_T(b * _diff_closed(y.v[:, 1:-1], g.hx, 0), u)
    u[0, :] = 0.0
    u[-1, :] = 0.0
    v[:, 1:-1] += _diff(y.v, g.hy, 1) * b
    _diff_T(b * y.v[:, 1:-1], g.hy, 1, v)
    _diff_closed_T(b * _corner_avg(y.u), g.hx, 0, v[:, 1:-1])
    _corner_avg_T(a * _diff_closed(y.u[1:-1, :], g.hy, 1), v)
    v[:, 0] = 0.0
    v[:, -1] = 0.0
    return out


def _convect(m, y: VelocityField) -> VelocityField:
    """The ``term`` of a forward march: the convection of the previous level y,
    after a check that its advective CFL number is at most 1."""
    g = y.grid
    cfl = (float(np.abs(y.u).max()) / g.hx + float(np.abs(y.v).max()) / g.hy) * g.dt
    if cfl > 1.0:
        raise CflError(f"advective CFL number {cfl:.3f} > 1; reduce dt "
                       f"(currently {g.dt:.3e})", residual=cfl)
    return convection(y)


def _closed_div_free(v: VelocityField) -> VelocityField:
    """``v`` with zero normal faces, Leray-projected if its divergence exceeds 1e-10."""
    v = v.apply_noslip()
    if divergence(v).max_abs() > 1e-10:
        v = project_div_free(v)
    return v


# ---------------------------------------------------------------------------
# the march and the forward solve
# ---------------------------------------------------------------------------

def _packed_data(g: GridSpec, *terms) -> np.ndarray | None:
    """dt * sum of ``traj.data * factors...`` over ``(traj, *factors)`` terms.

    The data part of a march's sources, which stays the same from sweep to
    sweep.  Factors broadcast against a packed stack and None factors are
    skipped; so are terms without a trajectory, and None is returned if no
    term is left.
    """
    out = None
    for traj, *factors in terms:
        if traj is None:
            continue
        p = traj.data.copy()
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


def _v_march(grid: GridSpec, levels: range, c: np.ndarray, coeffs: np.ndarray,
             term=None) -> np.ndarray:
    """The steps  c <- H (c + Q^T G[m] - dt Q^T term(m, Q c))  of :func:`_march` in V
    coordinates, from c: the rows of ``coeffs`` hold the sources' coordinates and
    receive the states'; returns the last.  The term reads the previous level,
    mapped to the faces one level at a time."""
    lo = min(levels)
    shape = (grid.nx - 1, grid.ny - 1)
    c = c.reshape(shape)
    y = None if term is None else VelocityField.zeros(grid)
    for m in levels:
        src = coeffs[m - lo]
        if term is not None:
            v_velocities(c.reshape(-1), grid, y.data)
            src -= grid.dt * v_coordinates(term(m, y).data, grid)
        src = src.reshape(shape)
        src += c
        v_step(src, grid, src)
        c = src
    return c


def _march(grid: GridSpec, levels: range, cur: VelocityField, stack: np.ndarray,
           term=None) -> VelocityField:
    """The sequential steps  y <- P S P (y + G[m])  of one march, in place.

    ``levels`` is a range of consecutive levels, forward or backward.
    ``stack`` has one row per marched level, from the lowest up: row k holds
    the dt-scaled, unprojected source G[m] of level m = min(levels) + k and
    receives the state of level m.  ``cur``, the iterate before the first
    step, is divergence free.  ``term(m, y)`` adds  -dt P term  to the step
    into level m, for a term that depends on the previous iterate y.
    Returns the last iterate.

    The march runs in V coordinates (:func:`_v_march`), with Q^T taken and
    Q applied once for all the levels.
    """
    lo = min(levels)
    coeffs = v_coordinates(stack, grid)
    _v_march(grid, levels, v_coordinates(cur.data, grid), coeffs, term)
    v_velocities(coeffs, grid, stack)
    return VelocityField.from_packed(grid, stack[levels[-1] - lo].copy())


def _forward(y0: VelocityField, opts: SolverOptions, block_sources, states: bool):
    """The forward march from y0, block by block, with its blow-up check.

    ``block_sources(levels)`` returns the dt-scaled sources of a block of
    consecutive levels as :func:`_march` takes them; the blocks cover 1..nt
    in order, and a block's stack receives its states if ``states`` or if it
    is the last.  The V coordinates are carried from block to block, and
    convection, if on, is the march's term.  A level above ``blowup_norm`` *
    max(|y0|, 1), or not finite, raises BlowupError naming the first such
    step once its block is marched.  Returns level 0 as stored (y0 with zero
    normal faces, projected if it is not divergence free) and y(T).
    """
    g = y0.grid
    start = _closed_div_free(y0)
    limit = opts.blowup_norm * max(start.max_abs(), 1.0)
    cur = v_coordinates(start.data, g)
    term = _convect if opts.convection_on else None
    block = levels_per_block(g)
    for first in range(1, g.nt + 1, block):
        levels = range(first, min(first + block, g.nt + 1))
        stack = block_sources(levels)
        coeffs = v_coordinates(stack, g)
        cur = _v_march(g, levels, cur, coeffs, term)
        # max |y| <= |y|_2 = |c|_2 (Q is orthonormal), never tight for a
        # divergence-free y: map back only a level the bound cannot clear
        peaks = np.sqrt(np.einsum("ij,ij->i", coeffs, coeffs))
        for k in np.flatnonzero(~(peaks < limit)):
            v_velocities(coeffs[k], g, stack[k])
            peaks[k] = np.abs(stack[k]).max()
        if states or levels[-1] == g.nt:
            v_velocities(coeffs, g, stack)
        bad = np.flatnonzero(~(peaks <= limit))  # also catches NaN
        if bad.size:
            k = int(bad[0])
            raise BlowupError(f"forward solve blew up at step {first + k}: |y| = {peaks[k]:.3e}",
                              residual=float(peaks[k]), iterations=first + k)
    return start, VelocityField.from_packed(g, stack[-1].copy())


def solve_forward(
    y0: VelocityField,
    forcing: ForcingAssembly | None,
    opts: SolverOptions = SolverOptions(),
) -> Trajectory:
    """March the (Navier-)Stokes system forward from y0 with assembled forcing.

    The dt-scaled forcing stack receives the states.  A level above
    ``blowup_norm`` * max(|y0|, 1), or not finite, raises BlowupError naming
    the first such step.
    """
    g = y0.grid
    if forcing is not None and forcing.grid != g:
        raise ConfigurationError("forcing assembled on a different grid")
    data = forcing.sources() if forcing is not None else None
    if data is None:
        data = np.zeros((g.nt + 1, g.n_faces))
    out = Trajectory(g, data)
    out[0], _ = _forward(y0, opts, lambda levels: data[levels[0]:levels[-1] + 1], True)
    return out


def solve_forward_terminal(y0: VelocityField, fu, fv,
                           opts: SolverOptions = SolverOptions()) -> VelocityField:
    """y(T) of the forward march from y0 driven by the forcing (fu, fv)(x, y, t).

    Equal to the bit to the last level of :func:`solve_forward` with the
    forcing ``Trajectory.from_function(grid, fu, fv)`` as one channel, and
    it fails the same way; but it samples and marches one block of levels
    at a time, so it never holds the forcing or the states of the whole
    horizon.
    """
    g = y0.grid

    def block_sources(levels):
        stack = np.empty((len(levels), g.n_faces))
        sample_levels(g, fu, fv, levels, stack)
        stack *= g.dt
        return stack

    return _forward(y0, opts, block_sources, False)[1]


# ---------------------------------------------------------------------------
# coupled optimality systems
# ---------------------------------------------------------------------------

@dataclass
class Coupling:
    """Geometry-dependent multipliers of the coupled optimality system."""

    grid: GridSpec
    k_mask: VelocityField   # gamma^-2 - ell^-2 * chi_O on faces
    obs_mask: VelocityField  # face weights of the observation set O_d
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
        ginv = 0.0 if math.isinf(gamma) else gamma**-2
        linv = 0.0 if math.isinf(ell) else ell**-2
        k = VelocityField.from_packed(grid, ginv - linv * chi.face_mask(grid).data)
        return cls(grid, k, obs_region.face_mask(grid), mu)


@dataclass
class CoupledSolution:
    """A converged coupled pair; ``iterations`` counts its forward-backward sweeps."""

    y: Trajectory
    z: Trajectory
    iterations: int
    residual: float


def _picard(first, second, it: Trajectory, new: Trajectory, opts: SolverOptions,
            what: str, hint: str, limit: float = math.inf):
    """Relaxed Picard loop  it <- it + relax (new - it)  with  new = second(first(it)).

    ``relax`` halves (down to 1/16) whenever the relative change stops
    falling.  A non-finite iterate raises BlowupError; an iterate larger than
    ``limit``, or ``picard_max`` sweeps, end the loop with ConvergenceError.
    On convergence ``first`` runs once more, so that ``new`` holds its half
    sweep of the converged ``it``.  Returns the sweep count and the last
    relative change.
    """
    relax = opts.relax
    prev_res = math.inf
    for k in range(1, opts.picard_max + 1):
        first()
        second()
        np.subtract(new.data, it.data, out=new.data)
        if relax < 1.0:
            new.data *= relax
        it.data += new.data
        size, change = traj_norm(it), traj_norm(new)
        residual = change / max(size, 1e-300)
        if not (math.isfinite(size) and math.isfinite(change)):
            raise BlowupError(f"{what} produced a non-finite iterate at sweep {k}",
                              residual=residual, iterations=k)
        if residual <= opts.picard_tol:
            first()
            return k, residual
        if residual >= prev_res and relax > 0.0625:
            relax *= 0.5
        if size > limit:
            break
        prev_res = residual
    raise ConvergenceError(
        f"{what} did not reach tolerance ({residual:.3e} > {opts.picard_tol:.1e}) "
        f"after {k} sweeps; {hint}",
        residual=residual,
        iterations=k,
    )


def solve_coupled_linear(
    h: Trajectory | None,
    y0: VelocityField,
    yd: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions = SolverOptions(),
    omega: Region | None = None,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
) -> CoupledSolution:
    """Forward-backward Picard solve of the linear coupled optimality system.

    y marches forward driven by  h*1_omega + (gamma^-2 - ell^-2 chi_O) z + f1
    and z marches backward driven by  mu*(y - yd)*chi_Od + f2,  with z(T)
    small of order dt (the discrete tracking weight at the final level).
    The converged pair is the exact first-order system of the discrete
    minimax cost, which is what the gradient-consistency tests require.
    The forward data is a :class:`ForcingAssembly`, so ``h`` needs ``omega``.
    """
    return _solve_coupled(h, y0, yd, coupling, opts, omega, f1, f2, False)


def _solve_coupled(h, y0, yd, coupling: Coupling, opts: SolverOptions, omega, f1, f2,
                   convective: bool) -> CoupledSolution:
    """The Picard sweeps of both coupled solves; ``convective`` adds convection to
    the forward march and its transpose around the sweep's y to the backward one."""
    g = coupling.grid
    w = trapezoid_weights(g.nt)[:, None]
    obs = coupling.obs_mask.data
    z_weight = g.dt * coupling.k_mask.data
    y_weight = g.dt * coupling.mu * obs
    fwd_data = ForcingAssembly(g, leader=h, extra_source=f1, omega=omega).sources()
    bwd_data = _packed_data(g, (yd, -coupling.mu * obs, w), (f2,))

    y0p = _closed_div_free(y0)
    y0_start = project_div_free(y0p)
    z = Trajectory.zeros(g)
    # the sweep's sources, then its output, in place
    work = Trajectory(g, np.empty_like(z.data))
    zd, wd = z.data, work.data
    # the convective backward march reads the y of its sweep from its own stack
    y = Trajectory.zeros(g) if convective else None
    transposed = (lambda m, raw: adjoint_coupling(y[m], raw)) if convective else None

    def forward_sweep():
        # work <- y of the current z; level 0 stays y0p
        np.multiply(zd[1:], z_weight, out=wd[1:])
        if fwd_data is not None:
            wd[1:] += fwd_data[1:]
        work[0] = y0p
        _march(g, range(1, g.nt + 1), y0_start, wd[1:], _convect if convective else None)

    def backward_sweep():
        # work (= y) <- the z it drives; the raw backward state is w_m * z_m
        if convective:
            np.copyto(y.data, wd)
        np.multiply(wd, y_weight, out=wd)
        np.multiply(wd, w, out=wd)
        if bwd_data is not None:
            wd[:] += bwd_data
        _march(g, range(g.nt, -1, -1), VelocityField.zeros(g), wd, transposed)
        wd[1:] *= 1.0 / w[1:]

    sweeps, residual = _picard(
        forward_sweep, backward_sweep, z, work, opts,
        "nonlinear coupled solve" if convective else "coupled linear solve",
        "reduce the data size or the horizon (small-data regime required)" if convective
        else "the forward-backward sweep contracts only for large enough gamma and ell",
        opts.blowup_norm)
    return CoupledSolution(work, z, sweeps, residual)


def frozen_sources(y: Trajectory, z: Trajectory):
    """The nonlinear terms of the coupled system frozen at (y, z), as sources (f1, f2).

    f1 carries the state convection of the previous iterate: its level n+1
    drives the step that advances from level n.  f2 carries the backward
    coupling (z . grad^T) y - (y . grad) z; the raw backward state is
    w_m * z_m and vanishes above the last level.  At a solution of
    :func:`solve_coupled_nonlinear` they are its march terms, frozen.
    """
    g = y.grid
    w = trapezoid_weights(g.nt)
    f1 = Trajectory.zeros(g)
    f2 = Trajectory.zeros(g)
    for m in range(g.nt):
        f1[m + 1] = -1.0 * convection(y[m])
        f2[m] = -1.0 * adjoint_coupling(y[m], z[m + 1] * w[m + 1])
    return f1, f2


def solve_coupled_nonlinear(
    h: Trajectory | None,
    y0: VelocityField,
    yd: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions,
    omega: Region | None = None,
) -> CoupledSolution:
    """Forward-backward Picard solve of the nonlinear coupled optimality system.

    The sweeps of :func:`solve_coupled_linear`, with the convection of the
    previous level as a term of the forward march and the transposed
    convection linearization around the sweep's y as a term of the backward
    march, so the converged pair satisfies the semi-implicit discretization
    of the nonlinear system.  A non-finite iterate raises BlowupError;
    ``picard_max`` sweeps without convergence raise ConvergenceError.
    """
    if opts.small_data_delta is not None and h1_norm(y0) > opts.small_data_delta:
        raise ConfigurationError(
            f"initial state exceeds the configured small-data bound "
            f"{opts.small_data_delta:.3e} required by the nonlinear solver"
        )
    return _solve_coupled(h, y0, yd, coupling, opts, omega, None, None, True)


# ---------------------------------------------------------------------------
# backward adjoint pair
# ---------------------------------------------------------------------------

@dataclass
class AdjointPair:
    phi: Trajectory
    theta: Trajectory
    iterations: int
    residual: float


def solve_backward_adjoint(
    phiT: VelocityField,
    g1: Trajectory | None,
    g2: Trajectory | None,
    link: Trajectory | None,
    coupling: Coupling | None,
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
    state, i.e. the exact dual pairing partner of y(0).  The pair is linear
    in phi(T), so its Picard loop has no blow-up bound.  Without a
    ``coupling`` there is no feedback: theta and g2 drop out and phi is one
    backward march driven by g1, with no Picard sweep.
    """
    g = phiT.grid
    phi_data = _packed_data(g, (g1,))
    phi_start = project_div_free(_closed_div_free(phiT))
    transposed = None if link is None else (lambda m, y: adjoint_coupling(link[m], y))

    def phi_march(phi: Trajectory):
        # phi from the dt-scaled, unprojected sources of levels 1..nt, in place
        if link is None:
            _march(g, range(g.nt, 0, -1), phi_start, phi.data[1:])
            phi[0] = phi[1]
            return
        # the transposed convection acts from the second step on
        cur = _march(g, range(g.nt, g.nt - 1, -1), phi_start, phi.data[g.nt:])
        _march(g, range(g.nt - 1, 0, -1), cur, phi.data[1:g.nt], transposed)
        phi[0] = phi[1] - g.dt * adjoint_coupling(link[0], phi[1])

    theta = Trajectory.zeros(g)
    if coupling is None:
        phi = Trajectory(g, np.zeros_like(theta.data) if phi_data is None else phi_data)
        phi_march(phi)
        return AdjointPair(phi, theta, 0, 0.0)

    w = trapezoid_weights(g.nt)[:, None]
    theta_weight = g.dt * coupling.mu * coupling.obs_mask.data
    phi_weight = g.dt * coupling.k_mask.data
    theta_data = _packed_data(g, (g2,))
    # the sweep's sources, then its output, in place
    work = Trajectory(g, np.empty_like(theta.data))
    td, wd = theta.data, work.data

    def phi_sweep():
        # work <- phi of the current theta
        np.multiply(td, theta_weight, out=wd)
        np.multiply(wd, w, out=wd)
        if phi_data is not None:
            wd[:] += phi_data
        phi_march(work)

    def theta_sweep():
        # work (= phi) <- the theta it drives
        np.multiply(wd[1:], phi_weight, out=wd[1:])
        wd[1:] *= 1.0 / w[1:]
        if theta_data is not None:
            wd[1:] += theta_data[1:]
        # theta(0) = 0; a non-finite phi(0) is handed on as NaN, so that the
        # Picard loop's finiteness check sees it
        wd[0] = 0.0 if np.isfinite(wd[0]).all() else math.nan
        _march(g, range(1, g.nt + 1), VelocityField.zeros(g), wd[1:])

    sweeps, residual = _picard(phi_sweep, theta_sweep, theta, work, opts, "adjoint pair",
                               "gamma or ell too small or mu too large")
    return AdjointPair(work, theta, sweeps, residual)


def control_gradient(adj_phi: Trajectory, mask: VelocityField | None = None) -> Trajectory:
    """Gradient representer of a control from the adjoint state.

    Divides interior levels by the trapezoid weights (only the endpoints
    differ from 1) and zeroes level 0, whose control slot never acts on the
    state; the result pairs exactly with perturbations under the trapezoidal
    space-time inner product.
    """
    g = adj_phi.grid
    data = adj_phi.data * (1.0 / trapezoid_weights(g.nt))[:, None]
    data[0] = 0.0
    if mask is not None:
        data *= mask.data
    return Trajectory(g, data)
