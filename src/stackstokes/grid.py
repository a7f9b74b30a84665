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
method of Lynch, Rice & Thomas, Numer. Math. 6, 1964).  A product costs
O(n^3) per solve against O(n^2 log n) for an FFT, but at the sizes this
toolkit steps on, the per-call overhead of the FFT routines dominates.  One
``P S P`` step with one BLAS thread (numpy 2.4.6, scipy 1.17.1, a 2-core VM)
took 320 / 400 / 1030 / 3560-4040 us through ``scipy.fft`` at nx = ny = 16 /
32 / 64 / 128 and takes 58 / 116 / 370 / 3090-3470 us as matrix products:
the two forms meet at about 128, the largest grid any config, test or
benchmark steps on.  On larger grids the cubic cost would make FFTs faster.

The Leray projection also takes leading batch dimensions: ``np.matmul``
broadcasts the cached matrices over a stack of levels, so a single field and
a packed stack of levels (:func:`face_views`, :func:`project_levels`) go
through the same code and give the same bits level by level.  A stack is
projected a few levels at a time, which keeps the temporaries small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "project_levels",
    "face_views",
    "diffusion_solve",
    "inner",
    "norm",
    "h1_norm",
    "inner_space_time",
    "packed_norm",
    "trapezoid_weights",
    "stream_function_velocity",
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

    @property
    def n_faces(self) -> int:
        """Length of a packed velocity: the u faces, then the v faces."""
        return (self.nx + 1) * self.ny + self.nx * (self.ny + 1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

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

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @classmethod
    def from_function(cls, grid: GridSpec, f) -> "ScalarField":
        x, y = grid.cell_centers()
        return cls(grid, np.asarray(f(x[:, None], y[None, :]), dtype=float))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def demean(self) -> "ScalarField":
        return ScalarField(self.grid, self.values - self.values.mean())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def __add__(self, other):
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, a: float):
        return ScalarField(self.grid, self.values * a)

    __rmul__ = __mul__


@dataclass
class VelocityField:
    """Face-staggered velocity pair (u on vertical faces, v on horizontal)."""

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        g = self.grid
        if self.u.shape != (g.nx + 1, g.ny) or self.v.shape != (g.nx, g.ny + 1):
            raise ConfigurationError(
                f"velocity shapes {self.u.shape}/{self.v.shape} do not match grid "
                f"{(g.nx + 1, g.ny)}/{(g.nx, g.ny + 1)}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VelocityField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def _of(cls, grid: GridSpec, u: np.ndarray, v: np.ndarray) -> "VelocityField":
        """Wrap float arrays already of the grid's face shapes, skipping the checks.

        For the per-step solver paths, whose arrays have these shapes by
        construction.
        """
        f = cls.__new__(cls)
        f.grid, f.u, f.v = grid, u, v
        return f

    @classmethod
    def from_functions(cls, grid: GridSpec, fu, fv) -> "VelocityField":
        xu, yu = grid.u_face_coords()
        xv, yv = grid.v_face_coords()
        u = np.asarray(fu(xu[:, None], yu[None, :]), dtype=float)
        v = np.asarray(fv(xv[:, None], yv[None, :]), dtype=float)
        u = np.broadcast_to(u, (grid.nx + 1, grid.ny)).copy()
        v = np.broadcast_to(v, (grid.nx, grid.ny + 1)).copy()
        return cls(grid, u, v)

    def copy(self) -> "VelocityField":
        return VelocityField(self.grid, self.u.copy(), self.v.copy())

    def apply_noslip(self) -> "VelocityField":
        """Zero the normal boundary faces (no-penetration closure)."""
        out = self.copy()
        out.u[0, :] = 0.0
        out.u[-1, :] = 0.0
        out.v[:, 0] = 0.0
        out.v[:, -1] = 0.0
        return out

    def boundary_is_closed(self, tol: float = 0.0) -> bool:
        return (
            np.abs(self.u[0, :]).max(initial=0.0) <= tol
            and np.abs(self.u[-1, :]).max(initial=0.0) <= tol
            and np.abs(self.v[:, 0]).max(initial=0.0) <= tol
            and np.abs(self.v[:, -1]).max(initial=0.0) <= tol
        )

    def max_abs(self) -> float:
        return max(float(np.abs(self.u).max()), float(np.abs(self.v).max()))

    def packed(self) -> np.ndarray:
        """The u faces, then the v faces, in one vector (see :func:`face_views`)."""
        return np.concatenate([self.u.ravel(), self.v.ravel()])

    def __add__(self, other):
        return VelocityField(self.grid, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return VelocityField(self.grid, self.u - other.u, self.v - other.v)

    def __mul__(self, a: float):
        return VelocityField(self.grid, self.u * a, self.v * a)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def mul_mask(self, mask: "FaceMask") -> "VelocityField":
        return VelocityField(self.grid, self.u * mask.on_u, self.v * mask.on_v)


@dataclass(frozen=True)
class FaceMask:
    """A multiplier sampled on both face families (weights or indicators)."""

    on_u: np.ndarray
    on_v: np.ndarray

    def packed(self) -> np.ndarray:
        """The mask as one vector in the packed face layout of :func:`face_views`."""
        return np.concatenate([self.on_u.ravel(), self.on_v.ravel()])


def face_views(packed: np.ndarray, grid: GridSpec):
    """The u and v arrays viewed inside a packed stack of shape ``(..., n_faces)``.

    A packed velocity is one vector of the (nx+1)*ny u faces followed by the
    nx*(ny+1) v faces, so masks, sums and norms act on a whole stack of
    levels at once; the views share its memory.
    """
    lead = packed.shape[:-1]
    n_u = (grid.nx + 1) * grid.ny
    return (packed[..., :n_u].reshape(*lead, grid.nx + 1, grid.ny),
            packed[..., n_u:].reshape(*lead, grid.nx, grid.ny + 1))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ConfigurationError("fields live on different grids")


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

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

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

    def intersection(self, other: "Region") -> "Region | None":
        if not self.intersects(other):
            return None
        return Region(
            max(self.x0, other.x0),
            min(self.x1, other.x1),
            max(self.y0, other.y0),
            min(self.y1, other.y1),
        )

    def contains_point(self, x: float, y: float, strict: bool = False) -> bool:
        if strict:
            return self.x0 < x < self.x1 and self.y0 < y < self.y1
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        """0/1 indicator on cells (center-in-region test)."""
        x, y = grid.cell_centers()
        in_x = (x >= self.x0) & (x < self.x1)
        in_y = (y >= self.y0) & (y < self.y1)
        return (in_x[:, None] & in_y[None, :]).astype(float)

    def face_mask(self, grid: GridSpec) -> FaceMask:
        """Face weights by adjacent-cell averaging (exact area for aligned boxes)."""
        c = self.cell_mask(grid)
        on_u = np.zeros((grid.nx + 1, grid.ny))
        on_u[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
        on_u[0, :] = c[0, :]
        on_u[-1, :] = c[-1, :]
        on_v = np.zeros((grid.nx, grid.ny + 1))
        on_v[:, 1:-1] = 0.5 * (c[:, 1:] + c[:, :-1])
        on_v[:, 0] = c[:, 0]
        on_v[:, -1] = c[:, -1]
        return FaceMask(on_u, on_v)

    def face_indicator(self, grid: GridSpec) -> FaceMask:
        """Sharp 0/1 support indicator on faces (idempotent projection).

        A face counts only when both adjacent cells lie in the region, so
        multiplying twice equals multiplying once; this is the mask used to
        restrict control fields, while :meth:`face_mask` provides integral
        weights.
        """
        fm = self.face_mask(grid)
        return FaceMask((fm.on_u >= 1.0).astype(float), (fm.on_v >= 1.0).astype(float))


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

    def cell_values(self, grid: GridSpec) -> np.ndarray:
        x, y = grid.cell_centers()
        return self.evaluate(x[:, None], y[None, :])

    def face_mask(self, grid: GridSpec) -> FaceMask:
        xu, yu = grid.u_face_coords()
        xv, yv = grid.v_face_coords()
        return FaceMask(
            self.evaluate(xu[:, None], yu[None, :]),
            self.evaluate(xv[:, None], yv[None, :]),
        )


class Trajectory:
    """Time-indexed sequence of nt+1 velocity snapshots on one grid."""

    __array_ufunc__ = None

    def __init__(self, grid: GridSpec, fields, pressures=None):
        fields = list(fields)
        if len(fields) != grid.nt + 1:
            raise ConfigurationError(
                f"trajectory needs nt+1={grid.nt + 1} snapshots, got {len(fields)}"
            )
        for f in fields:
            if f.grid != grid:
                raise ConfigurationError("trajectory snapshot on a different grid")
        self.grid = grid
        self.fields = fields
        self.pressures = list(pressures) if pressures is not None else None

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Trajectory":
        return cls(grid, [VelocityField.zeros(grid) for _ in range(grid.nt + 1)])

    @classmethod
    def from_function(cls, grid: GridSpec, fu, fv) -> "Trajectory":
        """Sample (fu, fv)(x, y, t) on the face points at every time level."""
        xu, yu = grid.u_face_coords()
        xv, yv = grid.v_face_coords()
        out = []
        for t in grid.times():
            u = np.broadcast_to(
                np.asarray(fu(xu[:, None], yu[None, :], t), dtype=float),
                (grid.nx + 1, grid.ny),
            ).copy()
            v = np.broadcast_to(
                np.asarray(fv(xv[:, None], yv[None, :], t), dtype=float),
                (grid.nx, grid.ny + 1),
            ).copy()
            out.append(VelocityField(grid, u, v))
        return cls(grid, out)

    @classmethod
    def constant(cls, snapshot: VelocityField) -> "Trajectory":
        return cls(snapshot.grid, [snapshot.copy() for _ in range(snapshot.grid.nt + 1)])

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, m: int) -> VelocityField:
        return self.fields[m]

    def __setitem__(self, m: int, f: VelocityField):
        if f.grid != self.grid:
            raise ConfigurationError("snapshot on a different grid")
        self.fields[m] = f

    def __iter__(self):
        return iter(self.fields)

    def copy(self) -> "Trajectory":
        return Trajectory(self.grid, [f.copy() for f in self.fields])

    def __add__(self, other: "Trajectory") -> "Trajectory":
        _check_same_grid(self, other)
        return Trajectory(self.grid, [a + b for a, b in zip(self.fields, other.fields)])

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        _check_same_grid(self, other)
        return Trajectory(self.grid, [a - b for a, b in zip(self.fields, other.fields)])

    def __mul__(self, a: float) -> "Trajectory":
        return Trajectory(self.grid, [f * a for f in self.fields])

    __rmul__ = __mul__

    def mul_mask(self, mask: FaceMask) -> "Trajectory":
        return Trajectory(self.grid, [f.mul_mask(mask) for f in self.fields])

    def packed(self) -> np.ndarray:
        """The snapshots copied into a packed ``(nt+1, n_faces)`` stack."""
        out = np.empty((len(self), self.grid.n_faces))
        u, v = face_views(out, self.grid)
        for m, f in enumerate(self.fields):
            u[m] = f.u
            v[m] = f.v
        return out

    @classmethod
    def from_packed(cls, grid: GridSpec, packed: np.ndarray) -> "Trajectory":
        """Snapshots that view the levels of a packed stack (no copy)."""
        u, v = face_views(packed, grid)
        return cls(grid, [VelocityField(grid, a, b) for a, b in zip(u, v)])

    def max_abs(self) -> float:
        return max(f.max_abs() for f in self.fields)


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
    u = np.zeros((g.nx + 1, g.ny))
    v = np.zeros((g.nx, g.ny + 1))
    u[1:-1, :] = (p.values[1:, :] - p.values[:-1, :]) / g.hx
    v[:, 1:-1] = (p.values[:, 1:] - p.values[:, :-1]) / g.hy
    return VelocityField(g, u, v)


def laplacian(vel: VelocityField) -> VelocityField:
    """Componentwise 5-point Laplacian with no-slip ghost closure.

    Normal direction uses the zero boundary faces; tangential direction uses
    odd ghost reflection (wall value = 0 at the half cell).  Output is zero on
    the normal-boundary faces.
    """
    g = vel.grid
    hx2, hy2 = g.hx**2, g.hy**2

    u = vel.u
    lu = np.zeros_like(u)
    lu[1:-1, :] = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / hx2
    ug = np.empty((g.nx + 1, g.ny + 2))
    ug[:, 1:-1] = u
    ug[:, 0] = -u[:, 0]
    ug[:, -1] = -u[:, -1]
    lu[1:-1, :] += (ug[1:-1, 2:] - 2.0 * u[1:-1, :] + ug[1:-1, :-2]) / hy2

    v = vel.v
    lv = np.zeros_like(v)
    lv[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / hy2
    vg = np.empty((g.nx + 2, g.ny + 1))
    vg[1:-1, :] = v
    vg[0, :] = -v[0, :]
    vg[-1, :] = -v[-1, :]
    lv[:, 1:-1] += (vg[2:, 1:-1] - 2.0 * v[:, 1:-1] + vg[:-2, 1:-1]) / hx2

    return VelocityField(g, lu, lv)


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


@lru_cache(maxsize=32)
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
    lamx = (2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)) / hx**2
    lamy = (2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)) / hy**2
    lam = lamx[:, None] + lamy[None, :]
    lam[0, 0] = 1.0
    inv = 1.0 / lam
    inv[0, 0] = 0.0
    return (*_and_transpose(cx), *_and_transpose(cy),
            cx @ dx, np.ascontiguousarray((cy @ dy).T), inv)


def _poisson_neumann_direct(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """Exact mean-zero solve of the cell-centered Neumann Laplacian."""
    cx, cx_t, cy, cy_t, _, _, inv = _neumann_tables(grid)
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
    thread, 2-core VM), and the pressure of ``solve_forward`` would cost two
    more products.
    """
    cx, cx_t, cy, cy_t, ax, ay_t, inv = _neumann_tables(grid)
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
    g = vel.grid
    u = np.zeros((g.nx + 1, g.ny))
    v = np.zeros((g.nx, g.ny + 1))
    p = _leray(vel.u[1:-1, :], vel.v[:, 1:-1], g, u[1:-1, :], v[:, 1:-1])
    return VelocityField._of(g, u, v), p


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


# Levels per batched projection: the temporaries of one block stay a few
# times the size of one level's data instead of the whole stack's.
_PROJECTION_BLOCK = 8


def project_levels(packed: np.ndarray, grid: GridSpec) -> None:
    """Leray-project every level of a packed stack in place (see :func:`face_views`).

    Level by level this equals :func:`project_div_free`; the levels go
    through the projection in blocks of a few.
    """
    u, v = face_views(packed, grid)
    for start in range(0, len(packed), _PROJECTION_BLOCK):
        u_in = u[start:start + _PROJECTION_BLOCK, 1:-1, :]
        v_in = v[start:start + _PROJECTION_BLOCK, :, 1:-1]
        _leray(u_in, v_in, grid, u_in, v_in)
    u[:, 0, :] = 0.0
    u[:, -1, :] = 0.0
    v[:, :, 0] = 0.0
    v[:, :, -1] = 0.0


@lru_cache(maxsize=32)
def _diffusion_tables(grid: GridSpec, dt: float):
    """Sine matrices and multipliers 1/(1 - dt*lambda) for both components.

    u: DST-I in x (interior faces), DST-II in y (odd ghost closure); v: the
    same with the axes swapped.  Each entry is the argument tail of
    :func:`_diagonalized`.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    lam1x = (2.0 * np.cos(np.pi * np.arange(1, nx) / nx) - 2.0) / hx**2
    lam2y = (2.0 * np.cos(np.pi * np.arange(1, ny + 1) / ny) - 2.0) / hy**2
    lam2x = (2.0 * np.cos(np.pi * np.arange(1, nx + 1) / nx) - 2.0) / hx**2
    lam1y = (2.0 * np.cos(np.pi * np.arange(1, ny) / ny) - 2.0) / hy**2
    m_u = 1.0 / (1.0 - dt * (lam1x[:, None] + lam2y[None, :]))
    m_v = 1.0 / (1.0 - dt * (lam2x[:, None] + lam1y[None, :]))
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
    g = rhs.grid
    tab_u, tab_v = _diffusion_tables(g, dt)
    u = np.zeros((g.nx + 1, g.ny))
    u[1:-1, :] = _diagonalized(rhs.u[1:-1, :], *tab_u)
    v = np.zeros((g.nx, g.ny + 1))
    v[:, 1:-1] = _diagonalized(rhs.v[:, 1:-1], *tab_v)
    return VelocityField._of(g, u, v)


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _face_weights(nx, ny):
    wu = np.ones((nx + 1, ny))
    wu[0, :] = 0.5
    wu[-1, :] = 0.5
    wv = np.ones((nx, ny + 1))
    wv[:, 0] = 0.5
    wv[:, -1] = 0.5
    return wu, wv


def inner(a: VelocityField, b: VelocityField, mask: FaceMask | None = None) -> float:
    """Discrete L2 pairing of velocities (optionally weighted by a face mask)."""
    _check_same_grid(a, b)
    g = a.grid
    wu, wv = _face_weights(g.nx, g.ny)
    pu = wu * a.u * b.u
    pv = wv * a.v * b.v
    if mask is not None:
        pu = pu * mask.on_u
        pv = pv * mask.on_v
    return g.cell_area * (float(pu.sum()) + float(pv.sum()))


def norm(a: VelocityField, mask: FaceMask | None = None) -> float:
    return math.sqrt(max(inner(a, a, mask), 0.0))


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


def inner_space_time(a: Trajectory, b: Trajectory, mask=None) -> float:
    """Trapezoid-in-time, cell-area-in-space quadrature of sum_i a_i b_i."""
    _check_same_grid(a, b)
    g = a.grid
    fm: FaceMask | None
    if mask is None:
        fm = None
    elif isinstance(mask, FaceMask):
        fm = mask
    else:
        fm = mask.face_mask(g)
    w = trapezoid_weights(g.nt)
    total = 0.0
    for m in range(g.nt + 1):
        total += float(w[m]) * inner(a[m], b[m], fm)
    return g.dt * total


def traj_norm(a: Trajectory, mask=None) -> float:
    return math.sqrt(max(inner_space_time(a, a, mask), 0.0))


@lru_cache(maxsize=32)
def _packed_face_weights(grid: GridSpec) -> np.ndarray:
    wu, wv = _face_weights(grid.nx, grid.ny)
    return grid.cell_area * FaceMask(wu, wv).packed()


def packed_norm(packed: np.ndarray, grid: GridSpec) -> float:
    """:func:`traj_norm` of a packed ``(nt+1, n_faces)`` stack, as one weighted reduction.

    ``einsum`` squares and weighs without a stack-sized temporary, which
    measured 0.3 MiB less peak memory than squaring the stack first.
    """
    per_level = np.einsum("ij,ij,j->i", packed, packed, _packed_face_weights(grid))
    return math.sqrt(max(grid.dt * trapezoid_weights(grid.nt).dot(per_level), 0.0))


def stream_function_velocity(grid: GridSpec, psi_nodes: np.ndarray) -> VelocityField:
    """Exactly divergence-free velocity from a nodal stream function.

    ``psi_nodes`` has shape (nx+1, ny+1); u = d(psi)/dy, v = -d(psi)/dx by
    face differencing, so the discrete divergence vanishes identically.  A
    stream function that is constant on the boundary yields zero normal faces.
    """
    psi = np.asarray(psi_nodes, dtype=float)
    if psi.shape != (grid.nx + 1, grid.ny + 1):
        raise ConfigurationError("stream function must be nodal (nx+1, ny+1)")
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return VelocityField(grid, u, v)
