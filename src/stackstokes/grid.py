"""Staggered-grid fields, differential operators, and space-time quadrature.

Layout (MAC arrangement) on the rectangle [0, Lx] x [0, Ly]:

* ``u`` (horizontal velocity) lives on vertical cell faces, shape ``(nx+1, ny)``;
  ``u[i, j]`` sits at ``(i*hx, (j+1/2)*hy)``.
* ``v`` (vertical velocity) lives on horizontal cell faces, shape ``(nx, ny+1)``;
  ``v[i, j]`` sits at ``((i+1/2)*hx, j*hy)``.
* scalars (pressure, potentials) live at cell centers, shape ``(nx, ny)``.

No-slip walls are encoded by zero normal faces (``u[0]=u[nx]=0``,
``v[:,0]=v[:,ny]=0``) plus odd ghost reflection of the tangential component,
so the discrete divergence/gradient pair is an exact adjoint pair and the
Leray projection below is structurally divergence-free.

The velocity inner product uses cell-area weights with half weight on the
normal-boundary faces; with zero boundary faces this is the plain flat
metric, while integrals of non-vanishing fields (quadrature checks) come out
exact for constants.

The implicit diffusion solve is applied in the separable eigenbasis of the
no-slip Laplacian, as products with cached orthonormal DST-I / DST-II
matrices (the fast diagonalization method of Lynch, Rice & Thomas, Numer.
Math. 6, 1964).  Both bases, and the basis of V below, take their
multipliers from one spectrum, the eigenvalues of the 5-point second
difference (:func:`_spectrum`).  A product costs O(n^3) per solve against
O(n^2 log n) for an FFT, but up to about 128 x 128 cells, the largest grid
any config, test or benchmark steps on, the per-call overhead of the FFT
routines outweighs that; on larger grids FFTs would be faster.

Fields, masks and trajectory rows share one packed layout: a vector of
``n_faces`` values, the u faces followed by the v faces (:func:`face_views`).
A :class:`VelocityField` is one such vector, whose ``u`` and ``v`` arrays are
views of it; a face mask is a velocity field of weights; a trajectory is one
packed stack of shape ``(nt+1, n_faces)`` whose row m holds level m.  Field
and trajectory arithmetic, masks and the inner products are single numpy
operations on the packed data, and ``traj[m]`` is a velocity field over row
m, so a snapshot kept beyond its trajectory is copied first (see
:class:`Trajectory`).  A trajectory file of :mod:`fieldio` holds the
stack as it is.

Every march of :mod:`stackstokes.stokes` runs in coordinates of the
divergence-free space V, of dimension nv = (nx-1)(ny-1): V is the range of
the MAC curl of the interior nodal stream functions (Nicolaides, SIAM J.
Numer. Anal. 29, 1992), and curl^T curl is the Dirichlet Laplacian, diagonal
in DST-I modes, so Q = curl (S_x (x) S_y) diag(lambda^-1/2) is an
orthonormal basis of V.  Q (:func:`v_velocities`) and Q^T
(:func:`v_coordinates`) are batched over levels, and the Leray projection
:func:`project_div_free` is Q Q^T; there is no pressure Poisson solve.
Q^T annihilates gradients, so it projects whatever it reads: a step
y <- P S P (y + G - dt T(y))  is  c <- H (c + Q^T G - dt Q^T T(Q c))  with
H = Q^T S Q in factored form (:func:`v_step`, in the coordinates scaled by
lambda^-1/2), four products of (n-1) x n matrices where the faces take
twenty.  H commutes with the reflection of each axis, so its factors are
checkerboard matrices, zero where the two mode indices sum to an even number
(the symmetry reduction of Bossavit, Comput. Methods Appl. Mech. Eng. 56,
1986); on large grids each product runs as two half-size products on the
parity classes of the modes, at about half the flops.  A grid keeps only
the tables its step reads, built from slices of the cached sine matrices
(:func:`_v_step_tables`); the tables of :func:`diffusion_solve`, the
reference the step is tested against, are built only when it is called.
A face mask d becomes the V operator Q^T diag(d) Q (:func:`v_mask`) in the
same factored form, restricted to the box of faces where d differs from its
most common value, so that the coupled sweeps apply their masks without
leaving V.  No nv x nv
matrix is built or diagonalized: the first ``np.linalg.eigh`` of a process
(225 x 225) raises its peak by 2.7 MiB, so the package calls no
``np.linalg`` routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GridSpec",
    "ScalarField",
    "VelocityField",
    "Region",
    "SmoothCutoff",
    "Trajectory",
    "divergence",
    "gradient",
    "laplacian",
    "project_div_free",
    "face_views",
    "diffusion_solve",
    "inner",
    "norm",
    "h1_norm",
    "inner_levels",
    "inner_space_time",
    "traj_norm",
    "closed_noise",
    "trapezoid_weights",
    "stream_function_velocity",
    "v_coordinates",
    "v_velocities",
    "v_step",
    "v_work",
    "v_mask",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: nx*ny cells on [0,Lx]x[0,Ly], nt steps on [0,T]."""

    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0
    nt: int = 32
    T: float = 1.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ConfigurationError(f"need nx, ny >= 8, got {self.nx}x{self.ny}")
        if self.nt < 8:
            raise ConfigurationError(f"need nt >= 8, got nt={self.nt}")
        if not (self.T > 0 and self.Lx > 0 and self.Ly > 0):
            raise ConfigurationError("domain lengths and horizon must be positive")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @cached_property
    def n_faces(self) -> int:
        """Length of a packed velocity: the u faces, then the v faces."""
        return (self.nx + 1) * self.ny + self.nx * (self.ny + 1)

    @cached_property
    def _face_split(self) -> tuple:
        """The u-face count and the u and v array shapes of the packed layout."""
        return (self.nx + 1) * self.ny, (self.nx + 1, self.ny), (self.nx, self.ny + 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    @cached_property
    def face_weights(self) -> np.ndarray:
        """Packed quadrature weights: 1, and 1/2 on the normal boundary faces (read-only)."""
        w = np.ones(self.n_faces)
        wu, wv = face_views(w, self)
        wu[0, :] = wu[-1, :] = 0.5
        wv[:, 0] = wv[:, -1] = 0.5
        w.flags.writeable = False
        return w

    # The transform tables are kept on the grid, so that each step reads them
    # as an attribute instead of hashing the grid for a cache lookup.
    @cached_property
    def _v(self) -> tuple:
        return _v_tables(self)

    @cached_property
    def _v_step(self):
        """The step of :func:`v_step` on this grid, its tables bound."""
        form, *tables = _v_step_tables(self)
        return form(*tables)

    @cached_property
    def _diffusion(self) -> dict:
        """Tables of :func:`diffusion_solve` by time step, filled on its first call
        at each; the step builds its own tables and leaves this empty."""
        return {}

    # coordinates of the three samplings
    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x, y

    def u_face_coords(self):
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return x, y

    def v_face_coords(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return x, y


@dataclass
class ScalarField:
    """Cell-centered scalar; pressure-like fields are kept mean-zero."""

    grid: GridSpec
    values: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ConfigurationError(
                f"scalar shape {self.values.shape} does not match grid "
                f"{(self.grid.nx, self.grid.ny)}"
            )

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ConfigurationError("fields live on different grids")


def _check_same_faces(a, b):
    # packed vectors of an nx x ny and an ny x nx grid have the same length
    if a.grid is not b.grid and (a.grid.nx, a.grid.ny) != (b.grid.nx, b.grid.ny):
        raise ConfigurationError("fields live on grids with different faces")


class _Packed:
    """Arithmetic of a field or a trajectory: one numpy operation on ``data``.

    A subclass wraps a result's data with ``_like`` and refuses an operand
    of another layout with ``_check``; a mask always needs the same faces.
    """

    __array_ufunc__ = None
    __slots__ = ()

    def copy(self):
        return self._like(self.data.copy())

    def max_abs(self) -> float:
        return float(np.abs(self.data).max())

    def __add__(self, other):
        self._check(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return self._like(self.data - other.data)

    def __mul__(self, a: float):
        return self._like(self.data * a)

    __rmul__ = __mul__

    def mul_mask(self, mask: "VelocityField"):
        _check_same_faces(self, mask)
        return self._like(self.data * mask.data)


class VelocityField(_Packed):
    """Face-staggered velocity: u on vertical faces, v on horizontal faces.

    The field is one packed vector ``data`` of length ``grid.n_faces``, its
    u faces followed by its v faces (see :func:`face_views`); ``u``, shape
    ``(nx+1, ny)``, and ``v``, shape ``(nx, ny+1)``, are views of it.
    Arithmetic and masks act on ``data`` in one operation.  A mask is a
    velocity field of weights.
    """

    __slots__ = ("grid", "data", "u", "v")
    _check = _check_same_faces

    def __init__(self, grid: GridSpec, u, v):
        """A field holding copies of ``u`` (shape (nx+1, ny)) and ``v`` (shape (nx, ny+1))."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (grid.nx + 1, grid.ny) or v.shape != (grid.nx, grid.ny + 1):
            raise ConfigurationError(
                f"velocity shapes {u.shape}/{v.shape} do not match grid "
                f"{(grid.nx + 1, grid.ny)}/{(grid.nx, grid.ny + 1)}"
            )
        self.grid = grid
        self.data = np.concatenate([u.ravel(), v.ravel()])
        self.u, self.v = face_views(self.data, grid)

    @classmethod
    def from_packed(cls, grid: GridSpec, data: np.ndarray) -> "VelocityField":
        """The field whose packed vector is ``data`` itself, without a copy."""
        if data.shape != (grid.n_faces,):
            raise ConfigurationError(
                f"packed velocity has shape {data.shape}, expected {(grid.n_faces,)}"
            )
        f = cls.__new__(cls)
        f.grid, f.data = grid, data
        f.u, f.v = face_views(data, grid)
        return f

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VelocityField":
        return cls.from_packed(grid, np.zeros(grid.n_faces))

    @classmethod
    def from_functions(cls, grid: GridSpec, fu, fv) -> "VelocityField":
        xu, yu = grid.u_face_coords()
        xv, yv = grid.v_face_coords()
        out = cls.zeros(grid)
        out.u[...] = fu(xu[:, None], yu[None, :])
        out.v[...] = fv(xv[:, None], yv[None, :])
        return out

    def _like(self, data: np.ndarray) -> "VelocityField":
        return VelocityField.from_packed(self.grid, data)

    def apply_noslip(self) -> "VelocityField":
        """Zero the normal boundary faces (no-penetration closure)."""
        out = self.copy()
        _zero_normal_faces(out.data, self.grid)
        return out


def face_views(packed: np.ndarray, grid: GridSpec):
    """The u and v arrays viewed inside a packed stack of shape ``(..., n_faces)``.

    A packed velocity is one vector of the (nx+1)*ny u faces followed by the
    nx*(ny+1) v faces.  Velocity fields, masks and trajectory rows all store
    this layout, so masks, sums and norms act on a whole stack of levels at
    once; the views share its memory.
    """
    n_u, u_shape, v_shape = grid._face_split
    lead = packed.shape[:-1]
    return packed[..., :n_u].reshape(lead + u_shape), packed[..., n_u:].reshape(lead + v_shape)


def _zero_normal_faces(packed: np.ndarray, grid: GridSpec) -> None:
    """Zero the normal boundary faces of a packed stack with any leading dimensions."""
    u, v = face_views(packed, grid)
    u[..., 0, :] = 0.0
    u[..., -1, :] = 0.0
    v[..., 0] = 0.0
    v[..., -1] = 0.0


def _read_only(grid: GridSpec, data: np.ndarray) -> VelocityField:
    """A field over ``data`` made read-only, for masks that are built once and shared."""
    data.flags.writeable = False
    return VelocityField.from_packed(grid, data)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle inside the domain, used as an indicator set."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ConfigurationError(f"degenerate region {self}")

    def contains(self, other: "Region") -> bool:
        return (
            self.x0 <= other.x0
            and other.x1 <= self.x1
            and self.y0 <= other.y0
            and other.y1 <= self.y1
        )

    def intersects(self, other: "Region") -> bool:
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def contains_point(self, x: float, y: float) -> bool:
        """Whether (x, y) lies strictly inside the rectangle."""
        return self.x0 < x < self.x1 and self.y0 < y < self.y1

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        """0/1 indicator on cells (center-in-region test)."""
        x, y = grid.cell_centers()
        in_x = (x >= self.x0) & (x < self.x1)
        in_y = (y >= self.y0) & (y < self.y1)
        return (in_x[:, None] & in_y[None, :]).astype(float)

    @lru_cache(maxsize=32)
    def face_mask(self, grid: GridSpec) -> VelocityField:
        """Face weights by adjacent-cell averaging (exact area for aligned boxes).

        Built once per grid; the result is read-only.
        """
        c = self.cell_mask(grid)
        data = np.zeros(grid.n_faces)
        u, v = face_views(data, grid)
        # each component along its normal axis: u, and v.T against c.T
        for faces, cells in ((u, c), (v.T, c.T)):
            faces[1:-1] = 0.5 * (cells[1:] + cells[:-1])
            faces[0] = cells[0]
            faces[-1] = cells[-1]
        return _read_only(grid, data)

    @lru_cache(maxsize=32)
    def face_indicator(self, grid: GridSpec) -> VelocityField:
        """Sharp 0/1 support indicator on faces (idempotent projection).

        A face counts only when both adjacent cells lie in the region, so
        multiplying twice equals multiplying once; this is the mask used to
        restrict control fields, while :meth:`face_mask` provides integral
        weights.  Built once per grid; the result is read-only.
        """
        return _read_only(grid, (self.face_mask(grid).data >= 1.0).astype(float))


@dataclass(frozen=True)
class SmoothCutoff:
    """Smooth plateau function: 0 outside ``region``, 1 on the tapered interior.

    The profile is a separable product of cosine ramps of width ``taper``
    (physical length), so ``supp chi = closure(region)`` and ``0 <= chi <= 1``.
    """

    region: Region
    taper: float

    def __post_init__(self):
        w = min(self.region.x1 - self.region.x0, self.region.y1 - self.region.y0)
        if not (0 < self.taper <= 0.5 * w):
            raise ConfigurationError(
                f"taper {self.taper} must lie in (0, half the shortest side {0.5 * w}]"
            )

    @classmethod
    def for_grid(cls, region: Region, grid: GridSpec, cells: float = 4.0) -> "SmoothCutoff":
        """Default taper of ``cells`` grid cells (resolves the ramp on coarse grids)."""
        taper = cells * max(grid.hx, grid.hy)
        w = min(region.x1 - region.x0, region.y1 - region.y0)
        taper = min(taper, 0.5 * w)
        return cls(region, taper)

    @staticmethod
    def _ramp(t: np.ndarray, a: float, b: float, taper: float) -> np.ndarray:
        """1D plateau: 0 outside [a,b], cosine ramp over [a, a+taper] and [b-taper, b]."""
        out = np.zeros_like(t, dtype=float)
        inside = (t > a) & (t < b)
        s = np.minimum(t - a, b - t)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.clip(s / taper, 0.0, 1.0)))
        out[inside] = ramp[inside]
        return out

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r, w = self.region, self.taper
        return self._ramp(np.asarray(x, dtype=float), r.x0, r.x1, w) * self._ramp(
            np.asarray(y, dtype=float), r.y0, r.y1, w
        )

    @lru_cache(maxsize=32)
    def face_mask(self, grid: GridSpec) -> VelocityField:
        """The cutoff sampled on the faces; built once per grid, read-only."""
        return _read_only(grid, VelocityField.from_functions(grid, self.evaluate,
                                                             self.evaluate).data)


class Trajectory(_Packed):
    """Time-indexed sequence of nt+1 velocity snapshots on one grid.

    The snapshots live in one packed stack ``data`` of shape ``(nt+1, n_faces)``
    whose row m is the ``data`` of level m; ``+``, ``-``, ``*``,
    :meth:`mul_mask` and the norms act on the whole stack at once.
    ``traj[m]`` is a :class:`VelocityField` whose ``data`` is row m:
    writing into them writes into the trajectory, and a later in-place change
    of the trajectory shows in the snapshot.  A snapshot kept beyond its
    trajectory, or one that must not change with it, is copied first (as
    ``leader.control_to_terminal`` does).  ``traj[m] = f`` copies f into row m.
    """

    _check = _check_same_grid

    def __init__(self, grid: GridSpec, snapshots):
        """``snapshots`` is a sequence of nt+1 fields, copied into a new stack,
        or an ``(nt+1, n_faces)`` array, which becomes the stack without a copy."""
        shape = (grid.nt + 1, grid.n_faces)
        fields = ()
        if not isinstance(snapshots, np.ndarray):
            fields = list(snapshots)
            if len(fields) != grid.nt + 1:
                raise ConfigurationError(
                    f"trajectory needs nt+1={grid.nt + 1} snapshots, got {len(fields)}"
                )
            snapshots = np.empty(shape)
        self.grid = grid
        self.data = np.asarray(snapshots, dtype=float)
        if self.data.shape != shape:
            raise ConfigurationError(
                f"trajectory stack has shape {self.data.shape}, expected {shape}"
            )
        for m, f in enumerate(fields):
            self[m] = f

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Trajectory":
        return cls(grid, np.zeros((grid.nt + 1, grid.n_faces)))

    @classmethod
    def from_function(cls, grid: GridSpec, fu, fv) -> "Trajectory":
        """Sample (fu, fv)(x, y, t) on the face points at every time level."""
        xu, yu = grid.u_face_coords()
        xv, yv = grid.v_face_coords()
        out = np.empty((grid.nt + 1, grid.n_faces))
        u, v = face_views(out, grid)
        for m, t in enumerate(grid.times()):
            u[m] = fu(xu[:, None], yu[None, :], t)
            v[m] = fv(xv[:, None], yv[None, :], t)
        return cls(grid, out)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, m: int) -> VelocityField:
        return VelocityField.from_packed(self.grid, self.data[m])

    def __setitem__(self, m: int, f: VelocityField):
        if f.grid != self.grid:
            raise ConfigurationError("snapshot on a different grid")
        self.data[m] = f.data

    def __iter__(self):
        return (VelocityField.from_packed(self.grid, row) for row in self.data)

    def _like(self, data: np.ndarray) -> "Trajectory":
        return Trajectory(self.grid, data)


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def divergence(vel: VelocityField) -> ScalarField:
    """Per-cell central divergence (exact adjoint of -gradient)."""
    g = vel.grid
    d = (vel.u[1:, :] - vel.u[:-1, :]) / g.hx + (vel.v[:, 1:] - vel.v[:, :-1]) / g.hy
    return ScalarField(g, d)


def gradient(p: ScalarField) -> VelocityField:
    """Cell-to-face gradient with zero normal-boundary faces (Neumann closure)."""
    g = p.grid
    out = VelocityField.zeros(g)
    out.u[1:-1, :] = (p.values[1:, :] - p.values[:-1, :]) / g.hx
    out.v[:, 1:-1] = (p.values[:, 1:] - p.values[:, :-1]) / g.hy
    return out


def laplacian(vel: VelocityField) -> VelocityField:
    """Componentwise 5-point Laplacian with no-slip ghost closure.

    Normal direction uses the zero boundary faces; tangential direction uses
    odd ghost reflection (wall value = 0 at the half cell).  Output is zero on
    the normal-boundary faces.  One stencil serves both components, each
    viewed with its normal axis first (``u``, and ``v.T``).
    """
    g = vel.grid
    out = VelocityField.zeros(g)
    for w, lw, hn, ht in ((vel.u, out.u, g.hx, g.hy), (vel.v.T, out.v.T, g.hy, g.hx)):
        lw[1:-1, :] = (w[2:, :] - 2.0 * w[1:-1, :] + w[:-2, :]) / hn**2
        wg = np.empty((w.shape[0], w.shape[1] + 2))
        wg[:, 1:-1] = w
        wg[:, 0] = -w[:, 0]
        wg[:, -1] = -w[:, -1]
        lw[1:-1, :] += (wg[1:-1, 2:] - 2.0 * w[1:-1, :] + wg[1:-1, :-2]) / ht**2
    return out


# ---------------------------------------------------------------------------
# the diffusion solve (fast diagonalization with cached transform matrices)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _dst1_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I of length n (symmetric, its own inverse)."""
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


@lru_cache(maxsize=32)
def _dst2_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-II of length n: row k samples sin(pi (k+1) (j+1/2) / n)."""
    k = np.arange(1, n + 1)[:, None]
    j = np.arange(n)[None, :] + 0.5
    m = math.sqrt(2.0 / n) * np.sin(np.pi * k * j / n)
    m[-1] *= math.sqrt(0.5)
    return m


def _diagonalized(f: np.ndarray, bx, bx_t, by, by_t, m: np.ndarray) -> np.ndarray:
    """B_x^T ((B_x f B_y^T) * m) B_y: a separable operator applied in its eigenbasis.

    The transposes come precomputed and contiguous: ``ndarray.dot`` then
    skips the dispatch that ``@`` pays per call, half the cost of a product
    at 16x16.
    """
    return bx_t.dot(bx.dot(f).dot(by_t) * m).dot(by)


def _and_transpose(b: np.ndarray):
    return b, np.ascontiguousarray(b.T)


def _spectrum(n: int, h: float) -> np.ndarray:
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2, k = 1..n, of the 5-point -d^2/dx^2.

    On n cells of width h, the modes k < n are those of the interior nodes
    or faces (DST-I), and all n those of the odd ghost closure (DST-II).
    """
    return (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / n)) / h**2


def _multipliers(grid: GridSpec, dt: float, modes=slice(None)):
    """The multipliers 1/(1 + dt*lambda) of the diffusion solve: m_u, on the
    DST-I x DST-II modes of the u faces, at the columns ``modes``, and m_v,
    on the DST-II x DST-I modes of the v faces, at the rows ``modes``."""
    lx, ly = _spectrum(grid.nx, grid.hx), _spectrum(grid.ny, grid.hy)
    return (1.0 / (1.0 + dt * (lx[:-1, None] + ly[None, modes])),
            1.0 / (1.0 + dt * (lx[modes, None] + ly[None, :-1])))


def _diffusion_tables(grid: GridSpec, dt: float):
    """Sine matrices and multipliers 1/(1 + dt*lambda) for both components.

    u: DST-I in x (interior faces), DST-II in y (odd ghost closure); v: the
    same with the axes swapped.  Each entry is the argument tail of
    :func:`_diagonalized`.
    """
    nx, ny = grid.nx, grid.ny
    m_u, m_v = _multipliers(grid, dt)
    return (
        (*_and_transpose(_dst1_matrix(nx - 1)), *_and_transpose(_dst2_matrix(ny)), m_u),
        (*_and_transpose(_dst2_matrix(nx)), *_and_transpose(_dst1_matrix(ny - 1)), m_v),
    )


def diffusion_solve(rhs: VelocityField, dt: float) -> VelocityField:
    """Solve (I - dt*Laplacian) out = rhs componentwise (exact transform solve).

    Only interior unknowns are solved; boundary faces of the result are zero
    and boundary-face values of ``rhs`` are ignored, matching the no-slip
    closure of :func:`laplacian`.  Its tables are built once per grid and
    time step.
    """
    g = rhs.grid
    tables = g._diffusion.get(dt)
    if tables is None:
        tables = g._diffusion[dt] = _diffusion_tables(g, dt)
    out = VelocityField.zeros(g)
    out.u[1:-1, :] = _diagonalized(rhs.u[1:-1, :], *tables[0])
    out.v[:, 1:-1] = _diagonalized(rhs.v[:, 1:-1], *tables[1])
    return out


# ---------------------------------------------------------------------------
# coordinates in the divergence-free space
# ---------------------------------------------------------------------------

def _v_tables(grid: GridSpec):
    """DST-I matrices of the interior nodes, the scale s = lambda^-1/2 of Q and s / hx, flat.

    lambda_kl are the eigenvalues of the 5-point Dirichlet Laplacian
    (-curl^T curl) on the interior nodes, whose eigenvectors are the sine
    modes; so the curl of the scaled modes is an orthonormal basis of V.
    """
    nx, ny = grid.nx, grid.ny
    scale = 1.0 / np.sqrt(_spectrum(nx, grid.hx)[:-1, None] + _spectrum(ny, grid.hy)[:-1])
    return _dst1_matrix(nx - 1), _dst1_matrix(ny - 1), scale.ravel(), (scale / grid.hx).ravel()


def v_coordinates(packed: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Q^T: the V coordinates, shape ``(..., nv)``, of a packed stack.

    Q^T = diag(lambda^-1/2) (S_x (x) S_y) curl^T reads the interior faces
    only; it annihilates gradients, so Q^T v = Q^T P v for the Leray
    projection P.  hx curl^T takes one new array and three passes in place.
    """
    sx, sy, _, scale = grid._v
    u, v = face_views(packed, grid)
    u = u[..., 1:-1, :]
    psi = np.subtract(u[..., :-1], u[..., 1:])
    psi *= grid.hx / grid.hy
    psi += v[..., 1:, 1:-1]
    psi -= v[..., :-1, 1:-1]
    c = (sx @ psi @ sy).reshape(packed.shape[:-1] + scale.shape)
    c *= scale
    return c


def v_velocities(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray) -> None:
    """Q: write the velocities of V coordinates ``(..., nv)`` into the packed ``out``.

    The nodal stream function psi = (S_x (x) S_y) diag(lambda^-1/2) c is zero
    on the boundary nodes, so its :func:`_curl` has zero normal faces.
    """
    sx, sy, scale, _ = grid._v
    lead = coeffs.shape[:-1]
    psi = np.zeros(lead + (grid.nx + 1, grid.ny + 1))
    modes = (coeffs * scale).reshape(lead + (grid.nx - 1, grid.ny - 1))
    psi[..., 1:-1, 1:-1] = sx @ modes @ sy
    _curl(psi, grid, out)


def project_div_free(vel: VelocityField) -> VelocityField:
    """Leray projection Q Q^T: remove the gradient part of ``vel``.

    The normal boundary faces of ``vel`` are ignored and those of the result
    are zero (no-penetration closure).
    """
    out = VelocityField.zeros(vel.grid)
    v_velocities(v_coordinates(vel.data, vel.grid), vel.grid, out.data)
    return out


def project_div_free_with_potential(vel: VelocityField):
    """Leray projection and the mean-zero potential phi with ``vel = out + grad(phi)``.

    phi is summed from the gradient part ``vel - out``: along y in the first
    column, then along x in every row.
    """
    g = vel.grid
    out = project_div_free(vel)
    grad = vel - out
    phi = np.zeros((g.nx, g.ny))
    phi[0, 1:] = np.cumsum(grad.v[0, 1:-1]) * g.hy
    phi[1:] = phi[0] + np.cumsum(grad.u[1:-1], axis=0) * g.hx
    phi -= phi.mean()
    return out, ScalarField(g, phi)


def _differences(grid: GridSpec):
    """E_y, (ny-1) x ny, and F_x, nx x (nx-1): the differences of :func:`_curl`, so that
    an interior stream function Psi has the interior u faces Psi E_y and v faces F_x Psi."""
    nx, ny = grid.nx, grid.ny
    ey = (np.eye(ny - 1, ny) - np.eye(ny - 1, ny, k=1)) / grid.hy
    fx = (np.eye(nx, nx - 1, k=-1) - np.eye(nx, nx - 1)) / grid.hx
    return ey, fx


def _v_factors(grid: GridSpec, split: bool = False):
    """The factors of a step at ``grid.dt``, ``(W_y, W_x, m_u, m_v, s^2)``;
    with ``split``, each of the first four is a pair of its nonzero blocks,
    by parity p = 0, 1: ``W_y[p::2, 1-p::2]``, ``W_x[1-p::2, p::2]``,
    ``m_u[:, 1-p::2]`` and ``m_v[1-p::2]``.

    Q c has the interior u faces  S_x (s c) S_y E_y  and v faces
    F_x S_x (s c) S_y  (:func:`_differences`), which the diffusion solve
    takes through S_x (x) T_y and T_x (x) S_y (T: DST-II).  As S_x S_x = I,
    H c = s ((((s c) W_y) m_u) W_y^T + W_x^T (m_v (W_x (s c)))) with
    W_y = S_y E_y T_y^T and W_x = T_x F_x S_x; s is an (nx-1) x (ny-1) array.
    A block is a product of slices, W_y[k, l] = (S_y[k] E_y) T_y[l]^T and
    W_x[l, k] = (T_x[l] F_x) S_x[:, k], read from the cached sine matrices:
    the whole factors are never built for the blocks, and the grid keeps no
    table of the diffusion solve.

    Each sine mode is even or odd under the reflection of its axis, and a
    difference flips that parity, so W_y[k, l] and W_x[l, k] vanish, up to
    rounding, where the 0-based mode indices k + l are even: every factor is
    a checkerboard matrix.
    """
    nx, ny = grid.nx, grid.ny
    ey, fx = _differences(grid)

    def factors(k, l):
        # T_y^T as a contiguous copy: below the cut the tables' bits rest on it
        wy = (_dst1_matrix(ny - 1)[k] @ ey) @ np.ascontiguousarray(_dst2_matrix(ny)[l].T)
        wx = (_dst2_matrix(nx)[l] @ fx) @ _dst1_matrix(nx - 1)[:, k]
        return (wy, wx, *_multipliers(grid, grid.dt, l))

    if split:
        parts = zip(*(factors(slice(p, None, 2), slice(1 - p, None, 2)) for p in (0, 1)))
    else:
        parts = factors(slice(None), slice(None))
    s = grid._v[2].reshape(nx - 1, ny - 1)
    return (*parts, s * s)


# A grid of at least this many cells steps on the parity classes of its modes
# (:func:`_split_step`), a smaller one on whole factors (:func:`_full_step`).
# 96 x 96 is the smallest of the square grids 16/32/64/96/128 on which the
# split step won 27 or more of 30 paired batches in each of two runs of the
# ``v_step`` layer of scripts/bench_layers.py (BENCH_9.json is the second;
# one BLAS thread): it halves the flops but doubles the numpy calls, and at
# 64 x 64 the two cancel.  There it won 24 and 27 of 30, no more than copies
# of the whole-factor step won against the same parent (28 and 24 of 30).
_SPLIT_STEP_CELLS = 96 * 96


def _splits(grid: GridSpec) -> bool:
    return grid.nx * grid.ny >= _SPLIT_STEP_CELLS


def _v_step_tables(grid: GridSpec):
    """The form of the grid's step, which binds the tables that follow it into
    a step ``(e, out, work)``, and those tables, the only ones a grid keeps for
    its step.  Below the cut, :func:`_full_step` with
    ``(W_y, W_y^T, W_x, W_x^T, m, s^2)``, m holding m_u and then m_v, flat;
    above it, :func:`_split_step` with only the nonzero blocks of the
    checkerboards (:func:`_v_factors`), W_y at (even k, odd l) and (odd k,
    even l) and W_x at (odd r, even i) and (even r, odd i), each with its
    transpose, then m_u and m_v on the matching columns or rows in the
    layout of :func:`v_work`, and s^2.
    """
    split = _splits(grid)
    wy, wx, m_u, m_v, s2 = _v_factors(grid, split)
    if not split:
        return (_full_step, *_and_transpose(wy), *_and_transpose(wx),
                np.concatenate([m_u.ravel(), m_v.ravel()]), s2)
    m = np.concatenate([a.ravel() for a in (*m_u, *m_v)])
    return (_split_step, *(f for b in (*wy, *wx) for f in _and_transpose(b)), m, s2)


def _full_step(wy, wy_t, wx, wx_t, m, s2):
    # a closure reads its tables faster than a partial passes them
    def step(e, out, work):
        a, b, ab, t = work
        e.dot(wy, out=a)
        wx.dot(e, out=b)
        ab *= m
        a.dot(wy_t, out=out)
        wx_t.dot(b, out=t)
        out += t
        out *= s2
    return step


def _split_step(wy0, wy0_t, wy1, wy1_t, wx0, wx0_t, wx1, wx1_t, m, s2):
    # the factors of index 0 read the even modes of e, those of index 1 the
    # odd ones: its columns for W_y, copied into e0 and e1, and its rows for
    # W_x, strided views that np.matmul (unlike ndarray.dot) takes as they are
    def step(e, out, work):
        e0, e1, a0, a1, b0, b1, ab, t = work
        np.copyto(e0, e[:, 0::2])
        np.copyto(e1, e[:, 1::2])
        e0.dot(wy0, out=a0)
        e1.dot(wy1, out=a1)
        np.matmul(wx0, e[0::2], out=b0)
        np.matmul(wx1, e[1::2], out=b1)
        ab *= m
        np.matmul(wx0_t, b0, out=t[0::2])
        np.matmul(wx1_t, b1, out=t[1::2])
        a0.dot(wy0_t, out=e0)
        a1.dot(wy1_t, out=e1)
        # copies into strided views; a ufunc on them would allocate buffers
        np.copyto(out[:, 0::2], e0)
        np.copyto(out[:, 1::2], e1)
        out += t
        out *= s2
    return step


def v_work(grid: GridSpec) -> tuple:
    """Work arrays of :func:`v_step` on ``grid``, to reuse over the levels of a march.

    The products with W_y and with W_x as views of one buffer, so that one
    multiplication applies m_u and m_v, the buffer, and the product with
    W_x^T.  On the parity classes the two products are four halves (of the
    even and the odd columns of e with W_y, of its even and odd rows with
    W_x) in the same buffer, after two arrays for the even and the odd
    columns of e.  The grid's step tables are built first, if they are not
    yet, so that the transients of their construction do not add to the
    arrays of a march.
    """
    grid._v_step  # builds the step's tables if they are not yet
    nx, ny = grid.nx, grid.ny
    na = (nx - 1) * ny
    ab, t = np.empty(na + nx * (ny - 1)), np.empty((nx - 1, ny - 1))
    if not _splits(grid):
        return ab[:na].reshape(nx - 1, ny), ab[na:].reshape(nx, ny - 1), ab, t
    na0, nb0 = (nx - 1) * (ny // 2), na + (nx // 2) * (ny - 1)
    return (np.empty((nx - 1, ny // 2)), np.empty((nx - 1, (ny - 1) // 2)),
            ab[:na0].reshape(nx - 1, ny // 2), ab[na0:na].reshape(nx - 1, (ny + 1) // 2),
            ab[na:nb0].reshape(nx // 2, ny - 1), ab[nb0:].reshape((nx + 1) // 2, ny - 1), ab, t)


def v_step(e: np.ndarray, grid: GridSpec, out: np.ndarray, work: tuple) -> None:
    """``out`` <- s H (e / s): a step of every march at ``grid.dt``, in the scaled
    V coordinates e = s c (s = lambda^-1/2, :func:`_v_factors`).

    In them a step is  e <- s^2 (((e W_y) m_u) W_y^T + W_x^T (m_v (W_x e))).
    Below ``_SPLIT_STEP_CELLS`` cells that is seven ``ndarray.dot`` products
    and in-place multiplications (``dot`` skips the dispatch of ``@`` and of
    ``np.dot``).  Above it the factors are checkerboards, so e W_y at the
    even T_y modes reads only the odd S_y modes of e and at the odd ones only
    the even ones, and likewise along x: each product is two products on the
    parity classes of e, at about half the flops, and the structural zeros
    are skipped.  The grid's form is chosen when its tables are built, by its
    first :func:`v_work` or step.  Both forms run through ``work``, from
    :func:`v_work`, so a step allocates no array data (the split form makes a
    few strided views of its arrays).  ``e`` and ``out`` are (nx-1) x (ny-1),
    ``out`` C-contiguous; they may be one array.
    """
    grid._v_step(e, out, work)


def v_mask(mask: np.ndarray, grid: GridSpec):
    """Q^T diag(mask) Q: the packed face mask as a map of V-coordinate stacks ``(..., nv)``.

    The value k0 that most interior faces share is split off: Q^T Q = I, so
    it is k0 times the identity.  The rest, d = mask - k0, reads Q c on the
    bounding box of its support on the interior u faces (rows I, columns J)
    and on the interior v faces, in the factored form of :func:`v_step`: with
    X = s c, the u faces there are  S_x[I] X A_y[:, J]  (A_y = S_y E_y), and
    Q^T takes their weighted values back by the transposed factors, so that
    part is  s (S_x[I]^T (d_u[I, J] (S_x[I] X A_y[:, J])) A_y[:, J]^T);  the
    v faces likewise, with B_x = F_x S_x on the left and S_y on the right.
    The right factors of the two parts stand side by side, so that the
    first and the last product are one matrix product each for the whole
    stack; the left ones act on their part's box columns of all levels laid
    side by side.  No nv x nv matrix is built.  Returns the map, which acts
    in place on a C-contiguous stack and returns it.
    """
    sx, sy, scale, _ = grid._v
    n1, n2 = grid.nx - 1, grid.ny - 1
    s = scale.reshape(n1, n2)
    ey, fx = _differences(grid)
    u, v = face_views(np.asarray(mask, dtype=float), grid)
    interior = (u[1:-1, :], v[:, 1:-1])
    values, counts = np.unique(np.concatenate([f.ravel() for f in interior]),
                               return_counts=True)
    k0 = float(values[counts.argmax()])
    parts, rights, width = [], [], 0
    for d, left, right in zip(interior, (sx, fx @ sx), (sy @ ey, sy)):
        rows, cols = np.nonzero(d != k0)
        if rows.size:
            i = slice(rows.min(), rows.max() + 1)
            j = slice(cols.min(), cols.max() + 1)
            box = d[i, j] - k0
            parts.append((*_and_transpose(left[i]), box[:, None, :],
                          slice(width, width + box.shape[1])))
            rights.append(right[:, j])
            width += box.shape[1]
    if not parts:
        def identity(c: np.ndarray) -> np.ndarray:
            c *= k0
            return c
        return identity
    rb, rb_t = _and_transpose(np.hstack(rights))

    def masked(c: np.ndarray) -> np.ndarray:
        levels = c.size // (n1 * n2)
        stack = c.reshape(levels, n1, n2)
        boxed = (stack * s).reshape(levels * n1, n2).dot(rb).reshape(levels, n1, width)
        for lb, lb_t, d, cols in parts:
            t = lb.dot(boxed[:, :, cols].transpose(1, 0, 2).reshape(n1, -1))
            box = t.reshape(len(lb), levels, -1)
            box *= d
            boxed[:, :, cols] = lb_t.dot(t).reshape(n1, levels, -1).transpose(1, 0, 2)
        t = boxed.reshape(levels * n1, width).dot(rb_t).reshape(levels, n1, n2)
        t *= s
        stack *= k0
        stack += t
        return c
    return masked


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def inner(a: VelocityField, b: VelocityField, mask: VelocityField | None = None) -> float:
    """Discrete L2 pairing of velocities (optionally weighted by a face mask)."""
    _check_same_grid(a, b)
    g = a.grid
    p = g.face_weights * a.data * b.data
    if mask is not None:
        p *= mask.data
    pu, pv = face_views(p, g)
    return g.cell_area * (float(pu.sum()) + float(pv.sum()))


def norm(a: VelocityField) -> float:
    return math.sqrt(max(inner(a, a), 0.0))


def inner_cells(a: ScalarField, b: ScalarField) -> float:
    _check_same_grid(a, b)
    return a.grid.cell_area * float((a.values * b.values).sum())


def h1_norm(a: VelocityField) -> float:
    """Discrete H1(=V) norm: L2 norm plus L2 norm of the no-slip gradient."""
    l = laplacian(a)
    grad_sq = -inner(a, l)  # = ||grad a||^2 by summation by parts
    return math.sqrt(max(inner(a, a) + grad_sq, 0.0))


def trapezoid_weights(nt: int) -> np.ndarray:
    w = np.ones(nt + 1)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def inner_levels(a: Trajectory, b: Trajectory, mask: VelocityField | None = None) -> np.ndarray:
    """:func:`inner` of a[m] and b[m] at every level m, as one weighted reduction.

    ``einsum`` multiplies and weighs without a stack-sized temporary.
    """
    _check_same_grid(a, b)
    g = a.grid
    weights = g.cell_area * g.face_weights
    if mask is not None:
        weights = weights * mask.data
    return np.einsum("ij,ij,j->i", a.data, b.data, weights)


def inner_space_time(a: Trajectory, b: Trajectory, mask: VelocityField | None = None) -> float:
    """Trapezoid-in-time, cell-area-in-space quadrature of sum_i a_i b_i."""
    g = a.grid
    return float(g.dt * trapezoid_weights(g.nt).dot(inner_levels(a, b, mask)))


def traj_norm(a: Trajectory) -> float:
    return math.sqrt(max(inner_space_time(a, a), 0.0))


def closed_noise(grid: GridSpec, rng: np.random.Generator, levels: int,
                 amp: float = 1.0, first: int = 0) -> np.ndarray:
    """A packed ``(levels, n_faces)`` stack of standard normal velocities times ``amp``.

    Levels ``first`` and up are drawn in order, each its u faces and then its
    v faces from ``rng``; the levels below ``first`` are zero, and so are the
    normal boundary faces of every level (no-penetration closure).
    """
    out = np.zeros((levels, grid.n_faces))
    out[first:] = rng.standard_normal((levels - first, grid.n_faces))
    _zero_normal_faces(out, grid)
    out *= amp
    return out


def _curl(psi: np.ndarray, grid: GridSpec, out: np.ndarray) -> None:
    """The MAC curl  u = d(psi)/dy, v = -d(psi)/dx  of nodal stream functions, shape
    ``(..., nx+1, ny+1)``, into the packed ``out``: divergence free by construction,
    and with zero normal faces where psi is constant on the boundary."""
    u, v = face_views(out, grid)
    np.subtract(psi[..., 1:], psi[..., :-1], out=u)
    u /= grid.hy
    np.subtract(psi[..., :-1, :], psi[..., 1:, :], out=v)
    v /= grid.hx


def stream_function_velocity(grid: GridSpec, psi_nodes: np.ndarray) -> VelocityField:
    """Exactly divergence-free velocity from a nodal stream function of shape
    (nx+1, ny+1), by :func:`_curl`."""
    psi = np.asarray(psi_nodes, dtype=float)
    if psi.shape != (grid.nx + 1, grid.ny + 1):
        raise ConfigurationError("stream function must be nodal (nx+1, ny+1)")
    out = VelocityField.zeros(grid)
    _curl(psi, grid, out.data)
    return out
