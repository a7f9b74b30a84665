"""Time integration of forced Stokes/Navier-Stokes and the coupled optimality systems.

One forward step is implicit-Euler diffusion, explicit convection, and Leray
projection applied symmetrically:

    y^{n+1} = P S P (y^n - dt*C(y^n) + dt*F^{n+1}),    S = (I - dt*Lap)^{-1}

Every march runs in the coordinates c = Q^T y of an orthonormal basis Q of
the divergence-free space (see :mod:`stackstokes.grid`), which absorb the
projection: P S P (y + dt F) = Q H (c + Q^T dt F) with H = Q^T S Q, so a
march (:func:`_v_march`) steps the V coordinates of every level's source in
place, in coordinates scaled by the basis' lambda^-1/2 (:func:`_v_steps`).
A term that depends on the previous iterate (convection, or its
transpose) is evaluated on the faces, at Q c mapped back one level at a
time, and enters the step as  -dt Q^T term.  :func:`solve_forward` maps an
assembled forcing stack to V and back once, and :func:`solve_forward_terminal`
marches a separable forcing profile(t) * F one level at a time, mapping F
once; both check the blow-up bound of every level.  A start is stored as
given: one with the small divergence (up to 1e-10) that is not projected
away is stepped from its projection.

Every linear space-time map of the solvers is a tuple of factors, each a
pair (apply, transpose) acting on packed stacks, in place where the shape
stays: a march forward or backward through V-coordinate stacks
(:func:`_marched`; H is symmetric, so the backward march is the transpose
of the forward one), Q and Q^T between V coordinates and faces
(:func:`_faces`), a diagonal weight (a face mask, per-level trapezoid
weights, dt, or their product), a face mask as the V operator Q^T diag(d) Q
(:func:`_masked`), and the convection linearized around a trajectory as a
march term, whose transpose is :func:`adjoint_coupling` around it.  The
transpose of a composed map is the reversed composition of the transposes
(:func:`_T`), so transposes are derived, not written.  The face maps of
:func:`solve_forward` and :func:`state_adjoint` compose Q^T, the march and
Q; the control gradients are the transposes of the state maps in the
trapezoid space-time product.  The coupled solves and adjoint pairs run one
Picard loop on V-coordinate stacks, over the two sweeps of a cycle of
factors and over that cycle transposed (:func:`_transposed`): they map
their sources to V once and their results back once, and assemble on the
faces only the two levels that lie outside V, the stored start y(0) and
the transposed start phi(0).  The discrete duality identities therefore
hold to solver tolerance, not to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    project_div_free,
    trapezoid_weights,
    v_coordinates,
    v_mask,
    v_step,
    v_velocities,
    v_work,
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
    "state_adjoint",
]


# a level above this times max(|y0|, 1) has blown up; no run comes near it
_BLOWUP_NORM = 1e6


@dataclass(frozen=True)
class SolverOptions:
    """The ``solver`` config section: the knobs of the time integrators and Picard loops."""

    convection_on: bool = False
    picard_tol: float = 1e-11
    picard_max: int = 200
    relax: float = 1.0
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
    """:func:`_diff` at every point, of ``a`` with its end rows along ``axis``
    reflected evenly into ghosts: a one-sided closure at the two ends, so
    constant fields have exactly zero advective derivative."""
    s = a.swapaxes(0, axis)
    return _diff(np.concatenate((s[:1], s, s[-1:])), h, 0).swapaxes(0, axis)


def _diff_closed_T(t, h, axis, out):
    """Add the transpose of :func:`_diff_closed` applied to ``t`` into ``out``:
    :func:`_diff_T` into the ghosted stack, whose ghost rows fold back onto the
    end rows they reflect."""
    s = t.swapaxes(0, axis)
    p = np.zeros((s.shape[0] + 2,) + s.shape[1:])
    _diff_T(s, h, 0, p)
    p[1] += p[0]
    p[-2] += p[-1]
    out += p[1:-1].swapaxes(0, axis)


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
    """dt * sum of ``traj.data * factors...`` over the ``(traj, *factors)`` terms with a
    trajectory (None factors skipped): the data part of a march's sources; None if no term.
    Only a term with factors, or a first one, takes a stack of its own."""
    out = None
    for traj, *factors in terms:
        if traj is None:
            continue
        ds = [d for d in factors if d is not None]
        if out is not None and not ds:
            out += traj.data
            continue
        p = np.multiply(traj.data, ds[0]) if ds else traj.data.copy()
        for d in ds[1:]:
            p *= d
        out = p if out is None else np.add(out, p, out=out)
    if out is not None:
        out *= g.dt
    return out


def _v_march(grid: GridSpec, levels: range, c: np.ndarray, coeffs: np.ndarray,
             term=None) -> np.ndarray:
    """The steps  c <- H (c + x[m] - dt Q^T term(m, Q c))  through ``levels``, in place.

    ``levels`` run forward or backward; row k of ``coeffs`` holds the V
    coordinates x of the dt-scaled source of level min(levels) + k and
    receives its state, and ``c`` is the state before the first step.  The
    rows are scaled once before the steps (:func:`_v_steps`) and back once
    after them.  Returns the last state, a row of ``coeffs``.
    """
    s = grid._v[2]
    coeffs *= s
    last = _v_steps(grid, levels, c * s, coeffs, v_work(grid), term)
    coeffs /= s
    return last


def _v_steps(grid: GridSpec, levels: range, e: np.ndarray, rows: np.ndarray, work: tuple,
             term=None) -> np.ndarray:
    """The steps of :func:`_v_march` in the scaled coordinates e = s c of :func:`v_step`.

    ``rows`` hold the scaled sources s x and receive the scaled states, and
    ``e`` is the scaled state before the first step.  The rows are walked as
    views of the one stack, each step writing through the ``work`` arrays
    (:func:`v_work`), so a march without a term allocates nothing per level.
    A term reads the previous level, mapped to the faces one level at a time.
    Returns the last scaled state, a row of ``rows``.
    """
    s = grid._v[2]
    shape = (grid.nx - 1, grid.ny - 1)
    prev = e.reshape(shape)
    y = None if term is None else VelocityField.zeros(grid)
    for m, src in zip(levels, rows.reshape((len(rows),) + shape)[::levels.step]):
        if term is not None:
            v_velocities(prev.reshape(-1) / s, grid, y.data)
            src -= (grid.dt * s * v_coordinates(term(m, y).data, grid)).reshape(shape)
        src += prev
        v_step(src, grid, src, work)
        prev = src
    return prev.reshape(-1)


def _blowup(peaks: np.ndarray, limit: float, first: int) -> None:
    """BlowupError at the first level from ``first`` on whose peak |y| is not <= ``limit``."""
    bad = np.flatnonzero(~(peaks <= limit))  # also catches NaN
    if bad.size:
        k = int(bad[0])
        raise BlowupError(f"forward solve blew up at step {first + k}: |y| = {peaks[k]:.3e}",
                          residual=float(peaks[k]), iterations=first + k)


def solve_forward(
    y0: VelocityField,
    forcing: ForcingAssembly | None,
    opts: SolverOptions = SolverOptions(),
) -> Trajectory:
    """March the (Navier-)Stokes system forward from y0 with assembled forcing.

    The dt-scaled forcing stack receives the states; level 0 stores y0 with
    zero normal faces, projected if it is not divergence free.  A level above
    ``_BLOWUP_NORM`` * max(|y0|, 1), or not finite, raises BlowupError naming
    the first such step once the horizon is marched.
    """
    g = y0.grid
    if forcing is not None and forcing.grid != g:
        raise ConfigurationError("forcing assembled on a different grid")
    data = forcing.sources() if forcing is not None else None
    if data is None:
        data = np.zeros((g.nt + 1, g.n_faces))
    start = _closed_div_free(y0)
    data[0] = start.data
    march = _marched(g, 1, _convect if opts.convection_on else None)
    _apply(_on_faces(g, march, data), data)
    data[0] = start.data
    _blowup(np.abs(data[1:]).max(axis=1), _BLOWUP_NORM * max(start.max_abs(), 1.0), 1)
    return Trajectory(g, data)


def solve_forward_terminal(y0: VelocityField, force: VelocityField, profile,
                           opts: SolverOptions = SolverOptions()) -> VelocityField:
    """y(T) of the forward march from y0 driven by the forcing profile(t) * force.

    ``profile`` is evaluated once, on ``grid.times()``.  The forcing is mapped
    to V coordinates once, b = Q^T force, and each level marched from
    (dt profile(t_m)) b in two rows of V coordinates that swap roles, the
    state and the source that the step turns into the next state.  The
    blow-up bound of a level is taken on its coordinates c = e / s, divided
    into the row that held the previous state, so a level allocates nothing
    but a convection term.  A level is mapped back only if its 2-norm
    reaches the blow-up limit, and the last one once the march has released
    its other arrays.  It agrees to rounding with the last level of
    :func:`solve_forward` on the forcing ``profile(t_m) * force`` of every
    level, and blows up at the same step.
    """
    g = y0.grid
    if force.grid != g:
        raise ConfigurationError("forcing on a different grid")
    scale = g.dt * np.asarray(profile(g.times()), dtype=float)
    if scale.shape != (g.nt + 1,):
        raise ConfigurationError(f"forcing profile has shape {scale.shape} on the "
                                 f"{g.nt + 1} time levels")
    start = _closed_div_free(y0)
    limit = _BLOWUP_NORM * max(start.max_abs(), 1.0)
    # the march carries the scaled coordinates of _v_steps from level to level
    s = g._v[2]
    e = v_coordinates(start.data, g) * s
    del start
    b = v_coordinates(force.data, g) * s
    work = v_work(g)
    rows = (e[None], np.empty((1, e.size)))
    term = _convect if opts.convection_on else None
    for m in range(1, g.nt + 1):
        # the source goes into the row that does not hold the state
        src = rows[m % 2]
        np.multiply(b, scale[m], out=src)
        e = _v_steps(g, range(m, m + 1), e, src, work, term)
        # the other row held the previous state, which nothing reads again;
        # max |y| <= |y|_2 = |c|_2 (Q is orthonormal), never tight for a
        # divergence-free y: map back only a level the bound cannot clear
        c = np.divide(e, s, out=rows[(m + 1) % 2][0])
        if not math.sqrt(c @ c) < limit:
            y = np.empty(g.n_faces)
            v_velocities(c, g, y)
            _blowup(np.abs(y).max(keepdims=True), limit, m)
    del b, work, rows, src, e  # all but the last coordinates, before Q allocates
    y = np.empty(g.n_faces)
    v_velocities(c, g, y)
    return VelocityField.from_packed(g, y)


# ---------------------------------------------------------------------------
# space-time factors and their exact transposes
# ---------------------------------------------------------------------------

def _T(factors: tuple) -> tuple:
    """The transpose of a composed map: its factors' transposes in reverse order."""
    return tuple((t, a) for a, t in reversed(factors))


def _apply(factors: tuple, x: np.ndarray) -> np.ndarray:
    """A composed map applied to the packed stack ``x`` in place, first factor first."""
    for apply, _ in factors:
        x = apply(x)
    return x


def _weight(*ds) -> tuple:
    """The diagonal factor x <- x d for each d not None in turn, its own transpose."""
    ds = [d for d in ds if d is not None]

    def scale(x):
        for d in ds:
            x *= d
        return x
    return scale, scale


def _slots(g: GridSpec) -> np.ndarray:
    """The column 0 at level 0, whose source slot holds the start of a march, and 1 above."""
    return (np.arange(g.nt + 1) > 0)[:, None] * 1.0


def _product(g: GridSpec, power: int = 1) -> tuple:
    """The trapezoid space-time product of controls, dt w_m, in units of dt, to ``power``."""
    return _weight(trapezoid_weights(g.nt)[:, None] ** power)


def _entry(g: GridSpec, mask: VelocityField | None = None) -> tuple:
    """The entry of a control into the sources of a march, in units of dt."""
    return (_weight(_slots(g), None if mask is None else mask.data),)


def _linked(link: Trajectory | None):
    """The march terms of the convection linearized around ``link``, forward and backward.

    A forward step into level m reads C'(link[m-1]) of the level below; its
    transpose, the backward step into level m, reads adjoint_coupling(link[m])
    of the level above, except into level nt, which no forward step leaves.
    """
    if link is None:
        return None, None
    zero = VelocityField.zeros(link.grid)
    return (lambda m, y: linearized_convection(link[m - 1], y),
            lambda m, y: adjoint_coupling(link[m], y) if m < link.grid.nt else zero)


def _faces(g: GridSpec, out: np.ndarray | None = None) -> tuple:
    """Q as a factor: V-coordinate stacks to packed faces, written into ``out`` if given
    (a face stack that Q^T has already read) or else into a new stack; its
    transpose Q^T back."""
    def to_faces(c):
        x = np.empty(c.shape[:-1] + (g.n_faces,)) if out is None else out
        v_velocities(c, g, x)
        return x
    return to_faces, lambda x: v_coordinates(x, g)


def _on_faces(g: GridSpec, factor, out: np.ndarray | None = None) -> tuple:
    """A factor of V-coordinate stacks composed as a map of packed face stacks: Q^T, it,
    then Q into ``out`` (see :func:`_faces`)."""
    q = _faces(g, out)
    return _T((q,)) + (factor, q)


def _field(g: GridSpec, c: np.ndarray) -> VelocityField:
    """The velocity Q c of one level's V coordinates."""
    f = VelocityField.zeros(g)
    v_velocities(c, g, f.data)
    return f


def _marched(g: GridSpec, lo: int, fwd_term=None, bwd_term=None, end=None) -> tuple:
    """The march through levels lo..nt (lo is 0 or 1), forward and backward, as a
    factor of V-coordinate stacks.

    Forward, dt-scaled sources x become  c[m] = H (c[m-1] + x[m] -
    dt Q^T fwd_term(m, Q c[m-1])), from zero (lo = 0) or from c[0] = x[0],
    which stays as given (lo = 1).  Backward, a becomes  U[m] = H (U[m+1] +
    a[m] - dt Q^T bwd_term(m, Q U[m+1])), from U[nt+1] = ``end`` (V
    coordinates) or zero, and with lo = 1 level 0 becomes the transposed
    start a[0] + U[1] - dt Q^T bwd_term(0, Q U[1]).  H is symmetric, so with
    the terms of :func:`_linked` and no ``end`` the two are exact transposes;
    ``end``, phi(T) of an adjoint pair, adds the transpose of reading c[nt],
    and a march with convection itself as its term is never transposed.
    """
    zero = np.zeros((g.nx - 1) * (g.ny - 1))

    def forward(x):
        _v_march(g, range(lo, g.nt + 1), x[0] if lo else zero, x[lo:], fwd_term)
        return x

    def backward(x):
        last = _v_march(g, range(g.nt, lo - 1, -1), zero if end is None else end, x[lo:],
                        bwd_term)
        if lo:
            x[0] += last
            if bwd_term is not None:
                x[0] -= g.dt * v_coordinates(bwd_term(0, _field(g, last)).data, g)
        return x
    return forward, backward


def _masked(op, d) -> tuple:
    """The factor x <- op(x) d of a V mask operator (:func:`v_mask`, symmetric, in
    place) and per-level weights d, which commute with it; its own transpose."""
    def apply(x):
        x = op(x)
        x *= d
        return x
    return apply, apply


def control_gradient(adj_phi: Trajectory, mask: VelocityField | None = None) -> Trajectory:
    """Gradient representer of a control from the adjoint state.

    The transpose of the control's entry into the sources (``mask`` above
    level 0, times dt), then the inverse of the trapezoid product dt w_m, so
    the result pairs exactly with perturbations under the trapezoidal
    space-time inner product.  The two dt cancel; level 0 is zero.
    """
    g = adj_phi.grid
    rep = _T(_entry(g, mask)) + (_product(g, -1),)
    return Trajectory(g, _apply(rep, adj_phi.data.copy()))


def state_adjoint(e: Trajectory, link: Trajectory | None = None) -> Trajectory:
    """X* e, for the map X = M dt E of a control to the state of the march from zero.

    E is the control's entry into the sources and M the march from level 1,
    linearized around ``link`` if one is given.  In the trapezoid product
    dt W at both ends, <X psi, e> = <psi, X* e> with
    X* = (dt W)^-1 E^T dt M^T dt W = W^-1 E^T M^T dt W.
    """
    g = e.grid
    x = e.data.copy()
    march = _T(_on_faces(g, _marched(g, 1, *_linked(link)), x))
    rep = (_product(g), _weight(g.dt)) + march + _T(_entry(g)) + (_product(g, -1),)
    return Trajectory(g, _apply(rep, x))


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
        # an infinite weight drops its channel: inf**-2 is 0.0
        k = VelocityField.from_packed(grid, gamma**-2 - ell**-2 * chi.face_mask(grid).data)
        return cls(grid, k, obs_region.face_mask(grid), mu)

    # the masks as V operators, built on first use
    @cached_property
    def _k_v(self):
        return v_mask(self.k_mask.data, self.grid)

    @cached_property
    def _obs_v(self):
        return v_mask(self.obs_mask.data, self.grid)


@dataclass
class CoupledSolution:
    """A coupled pair; its ``iterations`` forward-backward sweeps ended at ``relax``."""

    y: Trajectory
    z: Trajectory
    iterations: int
    residual: float
    relax: float


def _coupled_cycle(coupling: Coupling, up: tuple, down: tuple):
    """The sweeps z -> y -> z of the coupled fixed point on V-coordinate stacks, each a
    (pre, march, post) of factors.

    y = up(dt K z + sources), the start in the level-0 source, and
    z = W^-1 down^T(dt mu O W y + sources), the raw backward state w_m z_m
    above level 0: ``up`` marches from level 1, ``down`` through level 0, and
    K and O are the V operators of the masks k and chi_Od.  Level 0 of y is
    the start, which need not lie in V: the backward sources carry its
    tracking term, and the sweep reads y from level 1 on.
    """
    g = coupling.grid
    w = trapezoid_weights(g.nt)[:, None]
    raw = 1.0 / w
    raw[0] = 1.0
    return (((_masked(coupling._k_v, g.dt * _slots(g)),), up, ()),
            ((_masked(coupling._obs_v, (g.dt * coupling.mu) * _slots(g) * w),),
             _T((down,))[0], (_weight(raw),)))


def _transposed(cycle):
    """The sweeps theta -> phi -> theta of the transposed fixed point of ``cycle``.

    The cycle applies a1, m1, b1, a2, m2, b2 in turn, so its transpose applies
    b2', m2', a2', b1', m1', a1'.  Cut after m2', whose output theta is the
    iterate: phi = m1'(a2' b1' theta + sources), theta = m2'(b2' a1' phi + sources).
    """
    (a1, m1, b1), (a2, m2, b2) = cycle
    return (_T(b1 + a2), _T((m1,))[0], ()), (_T(b2 + a1), _T((m2,))[0], ())


def _sweep(sweep, src, x: np.ndarray, out: np.ndarray) -> None:
    """out <- post(march(pre(x) + src)) for a sweep (pre, march, post); ``out`` may be ``x``."""
    pre, march, post = sweep
    if out is not x:
        np.copyto(out, x)
    _apply(pre, out)
    if src is not None:
        out += src
    _apply((march,) + post, out)


def _v_norm(g: GridSpec, c: np.ndarray) -> float:
    """:func:`traj_norm` of Q c, from the V coordinates: Q is orthonormal."""
    sq = trapezoid_weights(g.nt).dot(np.einsum("ij,ij->i", c, c))
    return math.sqrt(max(float(g.cell_area * g.dt * sq), 0.0))


def _picard(g: GridSpec, cycle, sources, limit: float, opts: SolverOptions,
            sweeps: int | None, what: str, hint: str):
    """Relaxed Picard loop  it <- it + relax (new - it)  over a cycle of V-coordinate
    stacks, from it = 0, with the space-time norms taken in V.

    ``new`` is the second sweep of the first sweep of ``it``, ``sources[k]``
    added before the march of sweep k.  ``relax`` halves (down to 1/16)
    whenever the relative change stops falling.  The loop stops once that
    change is at most ``picard_tol``; an iterate larger than ``limit``, or
    ``picard_max`` sweeps, end it with ConvergenceError.  Given ``sweeps``, it
    runs exactly that many at ``relax``, a fixed linear map of the sources,
    and takes the change once, after the last; more than ``picard_max`` raise
    ConvergenceError before the first.  A non-finite iterate raises
    BlowupError.  Returns new (the first sweep of the last it), it, the sweep
    count, the last relative change and the relax of the last sweep.
    """
    if sweeps and sweeps > opts.picard_max:
        raise ConvergenceError(f"{what} asked for {sweeps} sweeps, more than picard_max "
                               f"{opts.picard_max}; {hint}", iterations=0)
    it = np.zeros((g.nt + 1, (g.nx - 1) * (g.ny - 1)))
    new = np.empty_like(it)
    relax, prev_res = opts.relax, math.inf
    for k in range(1, (sweeps or opts.picard_max) + 1):
        _sweep(cycle[0], sources[0], it, new)
        _sweep(cycle[1], sources[1], new, new)
        np.subtract(new, it, out=new)
        if relax < 1.0:
            new *= relax
        it += new
        if sweeps and k < sweeps:
            continue
        size, change = _v_norm(g, it), _v_norm(g, new)
        residual = change / max(size, 1e-300)
        if not (math.isfinite(size) and math.isfinite(change)):
            raise BlowupError(f"{what} produced a non-finite iterate at sweep {k}",
                              residual=residual, iterations=k)
        if sweeps or residual <= opts.picard_tol:
            _sweep(cycle[0], sources[0], it, new)
            return new, it, k, residual, relax
        if residual >= prev_res and relax > 0.0625:
            relax *= 0.5
        if size > limit:
            break
        prev_res = residual
    raise ConvergenceError(f"{what} did not reach tolerance ({residual:.3e} > "
                           f"{opts.picard_tol:.1e}) after {k} sweeps; {hint}",
                           residual=residual, iterations=k)


def solve_coupled_linear(
    h: Trajectory | None,
    y0: VelocityField,
    yd: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions = SolverOptions(),
    omega: Region | None = None,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
    sweeps: int | None = None,
) -> CoupledSolution:
    """Forward-backward Picard solve of the linear coupled optimality system.

    y marches forward driven by  h*1_omega + (gamma^-2 - ell^-2 chi_O) z + f1
    and z marches backward driven by  mu*(y - yd)*chi_Od + f2,  with z(T)
    small of order dt (the discrete tracking weight at the final level).
    The converged pair is the exact first-order system of the discrete
    minimax cost, which is what the gradient-consistency tests require.
    The forward data is a :class:`ForcingAssembly`, so ``h`` needs ``omega``.
    Given ``sweeps``, exactly that many run: a fixed linear map of the data.
    """
    return _solve_coupled(h, y0, yd, coupling, opts, omega, f1, f2, False, sweeps)


def _coords(g: GridSpec, x: np.ndarray | None) -> np.ndarray | None:
    """Q^T of a packed stack of sources, or None."""
    return None if x is None else v_coordinates(x, g)


def _solve_coupled(h, y0, yd, coupling: Coupling, opts: SolverOptions, omega, f1, f2,
                   convective: bool, sweeps: int | None = None) -> CoupledSolution:
    """The Picard sweeps of both coupled solves; ``convective`` adds convection to
    the forward march and its transpose around the sweep's y to the backward one.

    The sources are mapped to V coordinates once and the results back once.
    y(0) stays the start as given, whose tracking term the backward sources carry.
    """
    g = coupling.grid
    start = _closed_div_free(y0).data
    fwd = ForcingAssembly(g, leader=h, extra_source=f1, omega=omega).sources()
    if fwd is None:
        fwd = np.zeros((g.nt + 1, g.n_faces))
    fwd[0] = start
    fwd = v_coordinates(fwd, g)
    w = trapezoid_weights(g.nt)[:, None]
    bwd = _coords(g, _packed_data(g, (yd, -coupling.mu * coupling.obs_mask.data, w), (f2,)))
    if bwd is None:
        bwd = np.zeros_like(fwd)
    bwd[0] += (g.dt * coupling.mu * w[0, 0]) * v_coordinates(coupling.obs_mask.data * start, g)
    if convective:
        # the backward march reads the y of its sweep: the start, and each
        # level below nt as the forward march maps it to the faces
        link = Trajectory.zeros(g)
        link.data[0] = start

        def convect(m, y):
            if m > 1:
                link.data[m - 1] = y.data
            return _convect(m, y)
        cycle = _coupled_cycle(coupling, _marched(g, 1, convect), _marched(g, 0, *_linked(link)))
    else:
        cycle = _coupled_cycle(coupling, _marched(g, 1), _marched(g, 0))
    y, z, ran, residual, relax = _picard(
        g, cycle, (fwd, bwd), _BLOWUP_NORM, opts, sweeps,
        "nonlinear coupled solve" if convective else "coupled linear solve",
        "reduce the data size or the horizon (small-data regime required)" if convective
        else "the forward-backward sweep contracts only for large enough gamma and ell")
    to_faces = _faces(g)[0]
    y = to_faces(y)
    y[0] = start
    return CoupledSolution(Trajectory(g, y), Trajectory(g, to_faces(z)), ran, residual, relax)


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


def _require_small_data(y0: VelocityField, opts: SolverOptions) -> None:
    """solve_coupled_nonlinear's small-data hypothesis |y0|_H1 <= small_data_delta, if set."""
    if opts.small_data_delta is not None and h1_norm(y0) > opts.small_data_delta:
        raise ConfigurationError(f"initial state exceeds the configured small-data bound "
                                 f"{opts.small_data_delta:.3e} required by the nonlinear solver")


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
    _require_small_data(y0, opts)
    return _solve_coupled(h, y0, yd, coupling, opts, omega, None, None, True)


# ---------------------------------------------------------------------------
# backward adjoint pair
# ---------------------------------------------------------------------------

@dataclass
class AdjointPair:
    """A converged adjoint pair.  theta is kept in V coordinates, ``theta_v``, and
    mapped to the faces on first read: the terminal lift reads phi alone."""

    phi: Trajectory
    theta_v: np.ndarray
    iterations: int
    residual: float

    @cached_property
    def theta(self) -> Trajectory:
        g = self.phi.grid
        return Trajectory(g, _faces(g)[0](self.theta_v))


def solve_backward_adjoint(
    phiT: VelocityField,
    g1: Trajectory | None,
    g2: Trajectory | None,
    link: Trajectory | None,
    coupling: Coupling,
    opts: SolverOptions = SolverOptions(),
    sweeps: int | None = None,
) -> AdjointPair:
    """Coupled adjoint pair: phi backward from phi(T), theta forward from 0.

    The fixed point of the transposed cycle of the linear coupled solve,
    whose forward march is linearized around ``link`` if one is given: phi is
    driven by g1 + mu*theta*chi_Od and theta by g2 + (gamma^-2 - ell^-2 chi_O)
    phi, so pairing a control with ``control_gradient`` of the result
    reproduces the forward terminal functional exactly.  The level-0 slots of
    g1 and g2 are not read: theta(0) = 0, and phi(0) is the sensitivity to
    y(0), phi(1) minus dt times the transposed linearization around link(0).
    The pair is linear in phi(T), so its Picard loop has no blow-up bound.
    phi(T) and the sources are mapped to V coordinates once, and phi and
    theta back once, theta on first read; phi(0), which need not lie in V, is
    assembled on the faces.  ``sweeps`` fixes the sweep count as in
    :func:`solve_coupled_linear`: the k-sweep pair transposes its k-sweep solve.
    """
    g = phiT.grid
    terms = _linked(link)
    up = _marched(g, 1, *terms, end=v_coordinates(phiT.data, g))
    phi_src = _coords(g, _packed_data(g, (g1, _slots(g))))
    phi, theta, ran, residual, *_ = _picard(
        g, _transposed(_coupled_cycle(coupling, up, _marched(g, 0))),
        (phi_src, _coords(g, _packed_data(g, (g2, _slots(g))))), math.inf, opts, sweeps,
        "adjoint pair", "gamma or ell too small or mu too large")
    phi = Trajectory(g, _faces(g)[0](phi))
    # the transposed start, which need not lie in V, assembled on the faces
    phi[0] = phi[1]
    if link is not None:
        phi.data[0] -= g.dt * terms[1](0, phi[1]).data
    return AdjointPair(phi, theta, ran, residual)
