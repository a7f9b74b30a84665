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

The Leray projection and the implicit diffusion solve are applied in the
separable eigenbases of the Neumann and no-slip Laplacians, as products with
cached orthonormal DCT-II / DST-I / DST-II matrices (the fast diagonalization
method of Lynch, Rice & Thomas, Numer. Math. 6, 1964).  All three bases take
their multipliers from one spectrum, the eigenvalues of the 5-point second
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
:class:`Trajectory`).  The SGF1 velocity payload of :mod:`fieldio` is the
same vector.

The Leray projection also takes leading batch dimensions: ``np.matmul``
broadcasts the cached matrices over a stack of levels, so a single field and
a packed stack (:func:`project_levels`) go through the same code and give the
same bits level by level.  A stack is projected a few levels at a time, which
keeps the temporaries small.

Up to 20 x 20 cells a march runs in coordinates of the divergence-free
space V, of dimension nv = (nx-1)(ny-1), built on the operators above.  V is
the range of the MAC curl of the interior nodal stream functions
(Nicolaides, SIAM J. Numer. Anal. 29, 1992), and curl^T curl is the
Dirichlet Laplacian, diagonal in DST-I modes with the same spectrum, so
Q = curl (S_x (x) S_y) diag(lambda^-1/2) is an orthonormal basis of V and
Q Q^T is the Leray projection.  Q (:func:`v_velocities`) is the curl of
:func:`stream_function_velocity` after two DST-I products, and Q^T
(:func:`v_coordinates`) its transpose, both batched over levels; a step
y <- P S (y + G)  is  c <- H (c + Q^T G)  with the symmetric H = Q^T S Q
(:func:`v_step_matrix`), whose S is the diffusion solve on the grid's cached
tables.  H is built on a grid's first march and cached by grid value.  The
cut-over at 20 x 20 is where a V step stops being the cheaper one: a
32-step termless march (one BLAS thread, ``scripts/march_cutover.py``) took
30-40 us per V step against 50-78 us per face step at 20 x 20, and 78-94 us
against 59-103 us at 24 x 24.  H is not diagonalized: the first
``np.linalg.eigh`` of a process (225 x 225) leaves 1.6 MiB resident and
raises the peak by 2.7 MiB, about 6 % of a 16 x 16 leader run's peak, so the
package calls no ``np.linalg`` routine.
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
    "sample_levels",
    "divergence",
    "gradient",
    "laplacian",
    "project_div_free",
    "project_levels",
    "levels_per_block",
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
    "v_step_matrix",
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
    def _neumann(self) -> tuple:
        return _neumann_tables(self)

    @cached_property
    def _v(self) -> tuple:
        return _v_tables(self)

    @cached_property
    def _diffusion(self) -> dict:
        """Tables of :func:`diffusion_solve` by time step, filled on first use."""
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
        out = np.empty((grid.nt + 1, grid.n_faces))
        sample_levels(grid, fu, fv, range(grid.nt + 1), out)
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


def sample_levels(grid: GridSpec, fu, fv, levels: range, out: np.ndarray) -> None:
    """Write (fu, fv)(x, y, t_m) on the face points into the packed rows of ``out``,
    row k for the k-th level m of ``levels``."""
    xu, yu = grid.u_face_coords()
    xv, yv = grid.v_face_coords()
    times = grid.times()
    u, v = face_views(out, grid)
    for k, m in enumerate(levels):
        u[k] = fu(xu[:, None], yu[None, :], times[m])
        v[k] = fv(xv[:, None], yv[None, :], times[m])


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
# fast solvers (fast diagonalization with cached transform matrices)
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


@lru_cache(maxsize=32)
def _dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II of length n: row k samples cos(pi k (j+1/2) / n)."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :] + 0.5
    m = math.sqrt(2.0 / n) * np.cos(np.pi * k * j / n)
    m[0] *= math.sqrt(0.5)
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
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2, k = 0..n, of the 5-point -d^2/dx^2.

    On n cells of width h, the modes k < n are those of the cell-centered
    Neumann problem (DCT-II), 0 < k < n those of the interior nodes or faces
    (DST-I), and 0 < k <= n those of the odd ghost closure (DST-II).
    """
    return (2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)) / h**2


def _neumann_tables(grid: GridSpec):
    """Cosine matrices, the divergence in cosine space, and the inverse Laplacian.

    ``ax = C_x D_x`` and ``ay = C_y D_y`` map the interior u / v faces to the
    cosine coefficients of the MAC divergence; ``inv`` holds 1/|lambda| of the
    cell-centered Neumann Laplacian, with the constant mode (0, 0) set to 0.
    Returns ``(cx, cx^T, cy, cy^T, ax, ay^T, inv)``.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    cx, cy = _dct2_matrix(nx), _dct2_matrix(ny)
    dx = (np.eye(nx, nx - 1) - np.eye(nx, nx - 1, k=-1)) / hx
    dy = (np.eye(ny, ny - 1) - np.eye(ny, ny - 1, k=-1)) / hy
    lam = _spectrum(nx, hx)[:nx, None] + _spectrum(ny, hy)[None, :ny]
    lam[0, 0] = 1.0
    inv = 1.0 / lam
    inv[0, 0] = 0.0
    return (*_and_transpose(cx), *_and_transpose(cy),
            cx @ dx, np.ascontiguousarray((cy @ dy).T), inv)


def _poisson_neumann_direct(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """Exact mean-zero solve of the cell-centered Neumann Laplacian."""
    cx, cx_t, cy, cy_t, _, _, inv = grid._neumann
    return -_diagonalized(rhs, cx, cx_t, cy, cy_t, inv)


def _leray(u_in: np.ndarray, v_in: np.ndarray, grid: GridSpec, out_u, out_v) -> np.ndarray:
    """Leray projection on the interior faces; returns the potential p = -phi.

    ``u_in`` / ``v_in`` are the interior u / v faces with any leading batch
    dimensions; ``np.matmul`` broadcasts the cached matrices over them, so a
    single level and a stack of levels take the same path and give the same
    bits level by level.  The projected faces go to ``out_u`` / ``out_v``,
    which may be the inputs themselves.  On the interior faces
    P v = v - A^T M A v,  where  A v = A_x u C_y^T + C_x v A_y^T
    (A_x = C_x D_x, A_y = C_y D_y) gives the cosine coefficients of the MAC
    divergence and M inverts -Laplacian on them: an exactly linear, symmetric
    operator, as the discrete duality identities require.  -A^T q is applied
    as the MAC gradient of p = C_x^T q C_y, two products fewer than with the
    gradient folded into the matrices.  Folded, a projection measured about
    3 us faster at 16x16 but about 250 us slower at 128x128 (one BLAS
    thread, 2-core VM), and the potential that
    :func:`project_div_free_with_potential` returns would cost two more
    products.
    """
    cx, cx_t, cy, cy_t, ax, ay_t, inv = grid._neumann
    q = ax @ u_in @ cy_t
    q += cx @ v_in @ ay_t
    q *= inv
    p = cx_t @ q @ cy
    du = p[..., 1:, :] - p[..., :-1, :]
    du /= grid.hx
    np.add(u_in, du, out=out_u)
    dv = p[..., :, 1:] - p[..., :, :-1]
    dv /= grid.hy
    np.add(v_in, dv, out=out_v)
    return p


def _project(vel: VelocityField):
    out = VelocityField.zeros(vel.grid)
    p = _leray(vel.u[1:-1, :], vel.v[:, 1:-1], vel.grid, out.u[1:-1, :], out.v[:, 1:-1])
    return out, p


def project_div_free(vel: VelocityField) -> VelocityField:
    """Leray projection: remove the gradient part of ``vel``.

    The normal boundary faces of ``vel`` are ignored and those of the result
    are zero (no-penetration closure).
    """
    return _project(vel)[0]


def project_div_free_with_potential(vel: VelocityField):
    """Leray projection and the potential phi with ``vel = out + grad(phi)``."""
    out, p = _project(vel)
    return out, ScalarField(vel.grid, -p)


# Faces per batched projection, eight levels at 16x16: the temporaries of one
# block stay a few times this size instead of growing with the stack or the
# grid (from 64x64 up a block is one level).
_PROJECTION_BLOCK_FACES = 8 * 544


def levels_per_block(grid: GridSpec) -> int:
    """Levels of a packed stack that one block holds: about
    ``_PROJECTION_BLOCK_FACES`` faces, and at least one level."""
    return max(1, _PROJECTION_BLOCK_FACES // grid.n_faces)


def project_levels(packed: np.ndarray, grid: GridSpec) -> None:
    """Leray-project every level of a packed stack in place (see :func:`face_views`).

    Level by level this equals :func:`project_div_free`; the levels go
    through the projection in blocks of :func:`levels_per_block`.
    """
    u, v = face_views(packed, grid)
    block = levels_per_block(grid)
    for start in range(0, len(packed), block):
        u_in = u[start:start + block, 1:-1, :]
        v_in = v[start:start + block, :, 1:-1]
        _leray(u_in, v_in, grid, u_in, v_in)
    _zero_normal_faces(packed, grid)


def _diffusion_tables(grid: GridSpec, dt: float):
    """Sine matrices and multipliers 1/(1 + dt*lambda) for both components.

    u: DST-I in x (interior faces), DST-II in y (odd ghost closure); v: the
    same with the axes swapped.  Each entry is the argument tail of
    :func:`_diagonalized`.
    """
    nx, ny = grid.nx, grid.ny
    lx, ly = _spectrum(nx, grid.hx), _spectrum(ny, grid.hy)
    m_u = 1.0 / (1.0 + dt * (lx[1:nx, None] + ly[None, 1:]))
    m_v = 1.0 / (1.0 + dt * (lx[1:, None] + ly[None, 1:ny]))
    return (
        (*_and_transpose(_dst1_matrix(nx - 1)), *_and_transpose(_dst2_matrix(ny)), m_u),
        (*_and_transpose(_dst2_matrix(nx)), *_and_transpose(_dst1_matrix(ny - 1)), m_v),
    )


def diffusion_solve(rhs: VelocityField, dt: float) -> VelocityField:
    """Solve (I - dt*Laplacian) out = rhs componentwise (exact transform solve).

    Only interior unknowns are solved; boundary faces of the result are zero
    and boundary-face values of ``rhs`` are ignored, matching the no-slip
    closure of :func:`laplacian`.
    """
    return _diffuse(rhs, dt, VelocityField.zeros(rhs.grid))


def _diffuse(rhs: VelocityField, dt: float, out: VelocityField) -> VelocityField:
    """:func:`diffusion_solve` into the interior faces of ``out``, which may be
    ``rhs``; the tables of a time step are built once per grid."""
    g = rhs.grid
    tables = g._diffusion.get(dt)
    if tables is None:
        tables = g._diffusion[dt] = _diffusion_tables(g, dt)
    tab_u, tab_v = tables
    out.u[1:-1, :] = _diagonalized(rhs.u[1:-1, :], *tab_u)
    out.v[:, 1:-1] = _diagonalized(rhs.v[:, 1:-1], *tab_v)
    return out


# ---------------------------------------------------------------------------
# coordinates in the divergence-free space
# ---------------------------------------------------------------------------

# Largest dimension (nx-1)*(ny-1) of V whose termless marches run in V
# coordinates: up to 20x20 cells (see the module docstring).
_V_MAX_DIM = 19 * 19

# Basis columns per block while H is built: the face temporaries of one block
# stay about the size of the projection's.
_V_BLOCK = 16


def _v_tables(grid: GridSpec):
    """DST-I matrices of the interior nodes and the scale lambda^-1/2 of Q, flat.

    lambda_kl are the eigenvalues of the 5-point Dirichlet Laplacian
    (-curl^T curl) on the interior nodes, whose eigenvectors are the sine
    modes; so the curl of the scaled modes is an orthonormal basis of V.
    """
    nx, ny = grid.nx, grid.ny
    scale = 1.0 / np.sqrt(_spectrum(nx, grid.hx)[1:nx, None] + _spectrum(ny, grid.hy)[1:ny])
    return _dst1_matrix(nx - 1), _dst1_matrix(ny - 1), scale.ravel()


def v_coordinates(packed: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Q^T: the V coordinates, shape ``(..., nv)``, of a packed stack.

    Q^T = diag(lambda^-1/2) (S_x (x) S_y) curl^T reads the interior faces
    only; it annihilates gradients, so Q^T v = Q^T P v for the Leray
    projection P.
    """
    sx, sy, scale = grid._v
    u, v = face_views(packed, grid)
    u, v = u[..., 1:-1, :], v[..., :, 1:-1]
    psi = (u[..., :-1] - u[..., 1:]) / grid.hy
    psi += (v[..., 1:, :] - v[..., :-1, :]) / grid.hx
    c = (sx @ psi @ sy).reshape(packed.shape[:-1] + scale.shape)
    c *= scale
    return c


def v_velocities(coeffs: np.ndarray, grid: GridSpec, out: np.ndarray) -> None:
    """Q: write the velocities of V coordinates ``(..., nv)`` into the packed ``out``.

    The nodal stream function psi = (S_x (x) S_y) diag(lambda^-1/2) c is zero
    on the boundary nodes, so its :func:`_curl` has zero normal faces.
    """
    sx, sy, scale = grid._v
    lead = coeffs.shape[:-1]
    psi = np.zeros(lead + (grid.nx + 1, grid.ny + 1))
    modes = (coeffs * scale).reshape(lead + (grid.nx - 1, grid.ny - 1))
    psi[..., 1:-1, 1:-1] = sx @ modes @ sy
    _curl(psi, grid, out)


def v_step_matrix(grid: GridSpec) -> np.ndarray | None:
    """The step matrix H = Q^T S Q of V coordinates, or None above the cut-over.

    S is :func:`diffusion_solve` at ``grid.dt``; one step  y <- P S (y + G)
    of a march is  c <- H (c + Q^T G)  in the coordinates c = Q^T y.
    """
    if (grid.nx - 1) * (grid.ny - 1) > _V_MAX_DIM:
        return None
    return _built_v_step(grid)


@lru_cache(maxsize=8)
def _built_v_step(grid: GridSpec) -> np.ndarray:
    """H built a block of basis columns at a time, S applied by :func:`_diffuse`."""
    nv = grid._v[2].size
    h = np.empty((nv, nv))
    for start in range(0, nv, _V_BLOCK):
        cols = np.zeros((min(_V_BLOCK, nv - start), nv))
        cols[:, start:start + _V_BLOCK] = np.eye(len(cols))
        faces = np.empty((len(cols), grid.n_faces))
        v_velocities(cols, grid, faces)
        for row in faces:
            f = VelocityField.from_packed(grid, row)
            _diffuse(f, grid.dt, f)
        h[start:start + len(cols)] = v_coordinates(faces, grid)
    # H is symmetric up to rounding; make it exactly so
    h += h.T
    h *= 0.5
    h.flags.writeable = False
    return h


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
