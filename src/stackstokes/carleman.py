"""Singular exponential weight families and their numeric diagnostics.

Two families of space-time weights drive the observability machinery: the
``alpha``/``xi`` family with the open time factor t(T-t) (poles at both
endpoints) and the ``beta``/``tau`` family whose time factor is frozen to
T^2/4 on [0, T/2] (finite at t = 0, pole only at t = T).  Starred variants
are the spatial extremes at eta = 0, hatted variants at eta = |eta|_inf.

Everything is evaluated in log form: eta enters through
log(e^{12 lam M} - e^{lam(10 M + eta)}) computed without cancellation, and
exponent combinations such as  -4 a0 s beta* + 2 (m0-2) s beta  are reduced
to a single signed magnitude before exponentiation, so mixed-sign
combinations never produce inf - inf.  Exponents larger than the float range
saturate to +-inf, which maps to weight values 0 or inf but never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, GeometryError, NumericalError, PoleError
from .grid import (
    GridSpec,
    Region,
    ScalarField,
    Trajectory,
    VelocityField,
    closed_noise,
    inner,
    inner_levels,
    laplacian,
    norm,
    h1_norm,
    project_div_free,
    trapezoid_weights,
)
from .stokes import Coupling, SolverOptions, solve_backward_adjoint

__all__ = [
    "CarlemanParams",
    "WeightFamily",
    "WeightSpec",
    "EtaField",
    "eta_field",
    "weight_eval",
    "log_weight_eval",
    "alpha_ratio",
    "check_weight_domination",
    "check_laplacian_weight_bound",
    "observability_ratio",
    "weighted_norm_components",
]


@dataclass(frozen=True)
class CarlemanParams:
    """Weight parameters (lam, s) and the exponent constants (a0, m0).

    The constants must satisfy  5/4 <= a0 < a0+1 < m0 < 2*a0  and
    m0 < 2 + a0; violating parameters are rejected at construction.  The
    defaults (a0=2, m0=3.5) also satisfy the appendix regime
    a0 >= 2, a0 < m0 <= a0 + 2.
    """

    lam: float
    s: float
    a0: float = 2.0
    m0: float = 3.5
    eta_norm: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.s <= 0:
            raise ConfigurationError("lam and s must be positive")
        if self.eta_norm <= 0:
            raise ConfigurationError("eta_norm must be positive")
        a0, m0 = self.a0, self.m0
        if not (1.25 <= a0 and a0 + 1 < m0 < 2 * a0 and m0 < 2 + a0):
            raise ConfigurationError(
                f"exponent constants violate 5/4 <= a0 < a0+1 < m0 < 2*a0, "
                f"m0 < 2+a0: a0={a0}, m0={m0}"
            )


class WeightFamily(str, Enum):
    ALPHA = "alpha"
    XI = "xi"
    ALPHA_STAR = "alpha_star"
    XI_STAR = "xi_star"
    ALPHA_HAT = "alpha_hat"
    XI_HAT = "xi_hat"
    BETA = "beta"
    TAU = "tau"
    BETA_STAR = "beta_star"
    TAU_STAR = "tau_star"
    BETA_HAT = "beta_hat"
    TAU_HAT = "tau_hat"


_ALPHA_KIND = {
    WeightFamily.ALPHA, WeightFamily.XI,
    WeightFamily.ALPHA_STAR, WeightFamily.XI_STAR,
    WeightFamily.ALPHA_HAT, WeightFamily.XI_HAT,
}


@dataclass(frozen=True)
class WeightSpec:
    """One weight factor: a family with an exponent coefficient or power.

    ``coeff`` scales the family value inside an exponent (e.g. -2*a0 for
    e^{-2 a0 s alpha*}; the factor s is supplied by ``params``); ``power``
    is used for polynomial factors such as (xi_hat)^15.
    """

    family: WeightFamily
    params: CarlemanParams
    coeff: float = 1.0
    power: float = 0.0


def _time_factor_log(family: WeightFamily, T: float, t: float) -> float:
    """log of the fifth-power time denominator; raises at the poles."""
    if family in _ALPHA_KIND:
        if not (0.0 < t < T):
            raise PoleError(f"t={t} is at a pole of the open-weight family")
        tt = t * (T - t)
    else:
        if not (0.0 <= t < T):
            raise PoleError(f"t={t} is at a pole of the flat-start family")
        tt = T * T / 4.0 if t <= T / 2.0 else t * (T - t)
    return 5.0 * math.log(tt)


def _log_num(params: CarlemanParams, family: WeightFamily, eta_value: float) -> float:
    """log of the spatial numerator of the requested family at eta_value."""
    lam, M = params.lam, params.eta_norm
    base = family.value.split("_")
    kind = base[0]
    variant = base[1] if len(base) > 1 else None
    # the alpha/beta numerators decrease in eta, xi/tau increase; both kinds
    # take their starred extreme at eta = 0 and their hatted one at eta = M
    if variant == "star":
        eta_value = 0.0
    elif variant == "hat":
        eta_value = M
    if not (0.0 <= eta_value <= M):
        raise ConfigurationError(f"eta value {eta_value} outside [0, {M}]")
    if kind in ("alpha", "beta"):
        # e^{12 lam M} - e^{lam (10 M + eta)} = e^{12 lam M} (1 - e^{-lam(2M - eta)})
        return 12.0 * lam * M + math.log1p(-math.exp(-lam * (2.0 * M - eta_value)))
    return lam * (10.0 * M + eta_value)


def log_weight_eval(spec: WeightSpec, T: float, t: float, eta_value: float = 0.0) -> float:
    """log of the family value at (t, eta); PoleError at singular endpoints."""
    return _log_num(spec.params, spec.family, eta_value) - _time_factor_log(
        spec.family, T, t
    )


def weight_eval(spec: WeightSpec, T: float, t: float, eta_value: float = 0.0) -> float:
    """Family value times spec.coeff (or its spec.power-th power when set)."""
    lw = log_weight_eval(spec, T, t, eta_value)
    if spec.power != 0.0:
        lw = spec.power * lw
        return math.exp(lw) if lw < 709.0 else math.inf
    val = math.exp(lw) if lw < 709.0 else math.inf
    return spec.coeff * val


def alpha_ratio(lam: float, eta_norm: float = 1.0) -> float:
    """Spatial min/max ratio of the singular weight: alpha_hat / alpha_star.

    Reduces to the logistic function 1/(1 + e^{-lam*eta_norm}), hence tends
    to 1 as lam -> inf and to 1/2 as lam -> 0+.
    """
    if lam <= 0 or eta_norm <= 0:
        raise ConfigurationError("lam and eta_norm must be positive")
    x = lam * eta_norm
    return 1.0 / (1.0 + math.exp(-x))


def _signed_exponent(params: CarlemanParams, T: float, t: float,
                     terms, alpha_kind: bool) -> float:
    """Stable value of  s * sum_j coeff_j * family_j(t)  for one time family.

    ``terms`` is a list of (family, eta_value, coeff).  The numerators are
    combined at a common exponential scale before the (possibly huge) time
    factor multiplies in, so mixed-sign combinations never hit inf - inf;
    out-of-range magnitudes saturate to +-inf.
    """
    if not terms:
        return 0.0
    fam0 = terms[0][0]
    logs = []
    coeffs = []
    for fam, eta_value, coeff in terms:
        if (fam in _ALPHA_KIND) != alpha_kind:
            raise ConfigurationError("cannot mix open and flat-start time factors")
        logs.append(_log_num(params, fam, eta_value))
        coeffs.append(coeff)
    L = max(logs)
    ssum = sum(c * math.exp(l - L) for c, l in zip(coeffs, logs))
    if ssum == 0.0:
        return 0.0
    tfam = WeightFamily.ALPHA if alpha_kind else WeightFamily.BETA
    try:
        tlog = _time_factor_log(tfam, T, t)
    except PoleError:
        # at a pole the time factor is +inf; the sign of the combination
        # decides between a vanishing and an exploding weight
        return math.copysign(math.inf, ssum)
    mag = math.log(params.s) + L + math.log(abs(ssum)) - tlog
    if mag > 709.0:
        return math.copysign(math.inf, ssum)
    return math.copysign(math.exp(mag), ssum)


# ---------------------------------------------------------------------------
# spatial profile eta
# ---------------------------------------------------------------------------

@dataclass
class EtaField:
    """The weight-generating profile: positive inside, zero on the walls."""

    grid: GridSpec
    values: ScalarField
    grad_x: np.ndarray
    grad_y: np.ndarray
    eta_norm: float

    def at_points(self, x, y) -> np.ndarray:
        g = self.grid
        return np.sin(np.pi * np.asarray(x) / g.Lx) * np.sin(np.pi * np.asarray(y) / g.Ly)


def eta_field(grid: GridSpec, omega0: Region) -> EtaField:
    """Normalized sine-product profile with its analytic gradient.

    Validates the three structural requirements on cell centers: positive
    inside, vanishing at the walls, and critical-point free outside omega0
    (the single interior critical point is the center of the box, which must
    lie strictly inside omega0).
    """
    cx, cy = grid.Lx / 2.0, grid.Ly / 2.0
    if not omega0.contains_point(cx, cy, strict=True):
        raise GeometryError(
            f"profile critical point ({cx}, {cy}) must lie strictly inside "
            f"the inner region {omega0}"
        )
    x, y = grid.cell_centers()
    X, Y = x[:, None], y[None, :]
    vals = np.sin(np.pi * X / grid.Lx) * np.sin(np.pi * Y / grid.Ly)
    gx = (np.pi / grid.Lx) * np.cos(np.pi * X / grid.Lx) * np.sin(np.pi * Y / grid.Ly)
    gy = (np.pi / grid.Ly) * np.sin(np.pi * X / grid.Lx) * np.cos(np.pi * Y / grid.Ly)
    if vals.min() <= 0.0:
        raise GeometryError("profile must be positive at every interior cell")
    outside = omega0.cell_mask(grid) == 0.0
    gnorm = np.hypot(gx, gy)
    bad = outside & (gnorm <= 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise GeometryError(
            f"profile gradient vanishes outside the inner region at cell "
            f"({int(i)}, {int(j)}) ~ ({x[i]:.4f}, {y[j]:.4f})"
        )
    return EtaField(grid, ScalarField(grid, vals), gx, gy, 1.0)


# ---------------------------------------------------------------------------
# appendix inequality checks
# ---------------------------------------------------------------------------

@dataclass
class DominationReport:
    max_log_ratio: float
    max_ratio: float
    argmax_t: float
    t_values: np.ndarray
    log_ratios: np.ndarray


def check_weight_domination(
    params: CarlemanParams,
    T: float,
    M1: float,
    M2: float,
    epsilon: float,
    t_grid=None,
) -> DominationReport:
    """Empirical check of  e^{s a*} <= C s^M1 lam^M2 (xi_hat)^M1 e^{s(1+eps) a_hat}.

    Evaluates the log of the left/right ratio over the guard-banded time
    grid; a finite, lam-stable maximum certifies the inequality numerically.
    Requires (1+eps) * alpha_ratio(lam) > 1, otherwise the exponent wins on
    the wrong side and the inequality provably fails.
    """
    F = alpha_ratio(params.lam, params.eta_norm)
    if (1.0 + epsilon) * F <= 1.0:
        raise ConfigurationError(
            f"(1+eps)*F(lam) = {(1.0 + epsilon) * F:.6f} <= 1: the domination "
            "inequality fails for these parameters"
        )
    if t_grid is None:
        nt = 256
        guard = T / (2 * nt)
        t_grid = np.linspace(guard, T - guard, nt)
    t_grid = np.asarray(t_grid, dtype=float)
    logs = np.empty_like(t_grid)
    for i, t in enumerate(t_grid):
        expo = _signed_exponent(
            params, T, float(t),
            [
                (WeightFamily.ALPHA_STAR, 0.0, 1.0),
                (WeightFamily.ALPHA_HAT, 0.0, -(1.0 + epsilon)),
            ],
            alpha_kind=True,
        )
        xi_hat_log = log_weight_eval(
            WeightSpec(WeightFamily.XI_HAT, params), T, float(t)
        )
        logs[i] = (
            expo
            - M1 * math.log(params.s)
            - M2 * math.log(params.lam)
            - M1 * xi_hat_log
        )
    k = int(np.argmax(logs))
    max_log = float(logs[k])
    return DominationReport(
        max_log,
        math.exp(max_log) if max_log < 709.0 else math.inf,
        float(t_grid[k]),
        t_grid,
        logs,
    )


@dataclass
class LaplacianBoundReport:
    max_ratio: float
    ratios: list
    log_time_lhs: float
    log_time_rhs: float


def check_laplacian_weight_bound(
    params: CarlemanParams,
    T: float,
    M1t: float,
    M2t: float,
    u_samples,
    omega: Region,
    n_time: int = 128,
) -> LaplacianBoundReport:
    """Local-vs-global weighted Laplacian bound of the appendix.

    Computes, for each sampled divergence-free field u, the quotient

        s^M1 lam^M2 * int_{omega x (0,T)} e^{-4 s a_hat - 2 a0 s a*}
                                           (xi_hat)^M1 |Lap u|^2
        ---------------------------------------------------------------
        s^{-1}      * int_{Q x (0,T)}     e^{-2 m0 s a*} (xi_hat)^{-1}
                                           |Lap u|^2

    on a guard-banded time grid.  Requires the appendix regime a0 >= 2,
    a0 < m0 <= a0 + 2.
    """
    a0, m0 = params.a0, params.m0
    if not (a0 >= 2.0 and a0 < m0 <= a0 + 2.0):
        raise ConfigurationError(
            f"appendix regime needs a0 >= 2 and a0 < m0 <= a0+2, got a0={a0}, m0={m0}"
        )
    guard = T / (2 * n_time)
    t_grid = np.linspace(guard, T - guard, n_time)
    dt = float(t_grid[1] - t_grid[0])

    def log_time_integral(terms, power):
        vals = []
        for t in t_grid:
            expo = _signed_exponent(params, T, float(t), terms, alpha_kind=True)
            xi_hat_log = log_weight_eval(
                WeightSpec(WeightFamily.XI_HAT, params), T, float(t)
            )
            vals.append(expo + power * xi_hat_log)
        vals = np.asarray(vals)
        vmax = vals.max()
        if vmax == -math.inf:
            return -math.inf
        return vmax + math.log(np.exp(vals - vmax).sum() * dt)

    lhs_t = log_time_integral(
        [
            (WeightFamily.ALPHA_HAT, 0.0, -4.0),
            (WeightFamily.ALPHA_STAR, 0.0, -2.0 * a0),
        ],
        M1t,
    )
    rhs_t = log_time_integral(
        [(WeightFamily.ALPHA_STAR, 0.0, -2.0 * m0)],
        -1.0,
    )

    mask = omega.face_mask(u_samples[0].grid)
    ratios = []
    for u in u_samples:
        lap = laplacian(u)
        local = inner(lap, lap, mask)
        total = inner(lap, lap)
        if total == 0.0:
            ratios.append(0.0)
            continue
        if local == 0.0:
            ratios.append(0.0)
            continue
        log_ratio = (
            M1t * math.log(params.s)
            + M2t * math.log(params.lam)
            + lhs_t
            + math.log(local)
            - (-math.log(params.s) + rhs_t + math.log(total))
        )
        ratios.append(math.exp(log_ratio) if log_ratio < 709.0 else math.inf)
    return LaplacianBoundReport(max(ratios), ratios, lhs_t, rhs_t)


# ---------------------------------------------------------------------------
# observability diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ObservabilityReport:
    max_ratio: float
    ratios: list
    flagged: int   # samples with vanishing observation but nonzero state


def observability_ratio(
    params: CarlemanParams,
    coupling: Coupling,
    omega: Region,
    n_samples: int,
    rng: np.random.Generator | None = None,
    opts: SolverOptions = SolverOptions(),
    samples=None,
) -> ObservabilityReport:
    """Empirical constant of the weighted observability inequality.

    For random terminal data the adjoint pair is solved with zero sources and
    the quotient (weighted global norms + |phi(0)|^2) / (omega-local weighted
    observation of phi) is recorded; the maximum over samples estimates the
    observability constant.
    """
    if rng is None:
        rng = np.random.default_rng(101)
    g = coupling.grid
    a0, m0, s = params.a0, params.m0, params.s
    T = g.T
    w = trapezoid_weights(g.nt)
    times = g.times()

    # time-only weights of the left-hand side
    lhs_phi_w = np.zeros(g.nt + 1)
    lhs_theta_w = np.zeros(g.nt + 1)
    for m, t in enumerate(times):
        e1 = _signed_exponent(
            params, T, float(t), [(WeightFamily.BETA_STAR, 0.0, -2.0 * m0)], False
        )
        e2 = _signed_exponent(
            params, T, float(t), [(WeightFamily.BETA_STAR, 0.0, -2.0 * (a0 + 1.0))], False
        )
        if t >= T:
            lhs_phi_w[m] = 0.0
            lhs_theta_w[m] = 0.0
            continue
        tau_star_log = log_weight_eval(
            WeightSpec(WeightFamily.TAU_STAR, params), T, float(t)
        )
        lhs_phi_w[m] = math.exp(e1 + 3.0 * tau_star_log) if e1 + 3.0 * tau_star_log < 709 else math.inf
        lhs_theta_w[m] = math.exp(e2 + 3.0 * tau_star_log) if e2 + 3.0 * tau_star_log < 709 else math.inf

    # spatially varying weight of the observation term
    lam, M = params.lam, params.eta_norm

    def eta(x, y):
        return np.sin(np.pi * x / g.Lx) * np.sin(np.pi * y / g.Ly)

    q = -4.0 * a0 * (1.0 - math.exp(-2.0 * lam * M)) + 2.0 * (m0 - 2.0) * (
        1.0 - np.exp(-lam * (2.0 * M - VelocityField.from_functions(g, eta, eta).data))
    )
    # the observation weight of every level and face, times the quadrature
    # weights (trapezoid in time, cell area in space, the face mask of omega)
    rhs_w = np.zeros((g.nt + 1, g.n_faces))
    for m, t in enumerate(times):
        if t >= T:
            continue
        tlog = _time_factor_log(WeightFamily.BETA, T, float(t))
        tau_hat_log = log_weight_eval(
            WeightSpec(WeightFamily.TAU_HAT, params), T, float(t)
        )
        base = math.log(s) + 12.0 * lam * M - tlog
        with np.errstate(divide="ignore"):
            expo = np.sign(q) * np.exp(np.minimum(base + np.log(np.abs(q)), 709.0))
        rhs_w[m] = np.exp(np.minimum(expo + 15.0 * tau_hat_log, 709.0))
    wq = w * g.dt
    rhs_w *= omega.face_mask(g).data
    rhs_w *= (wq * g.cell_area)[:, None]

    if samples is None:
        samples = [project_div_free(VelocityField.from_packed(g, row))
                   for row in closed_noise(g, rng, n_samples)]
    ratios = []
    flagged = 0
    for phiT in samples:
        nT = norm(phiT)
        if nT == 0.0:
            ratios.append(0.0)
            continue
        phiT = phiT * (1.0 / nT)
        adj = solve_backward_adjoint(phiT, None, None, None, coupling, opts)
        phi_sq = inner_levels(adj.phi, adj.phi)
        theta_sq = inner_levels(adj.theta, adj.theta)
        lhs = float(phi_sq[0] + wq.dot(lhs_phi_w * phi_sq + lhs_theta_w * theta_sq))
        rhs = float(np.einsum("ij,ij,ij->", rhs_w, adj.phi.data, adj.phi.data))
        if rhs == 0.0:
            if lhs > 0.0:
                flagged += 1
                ratios.append(math.inf)
            else:
                ratios.append(0.0)
            continue
        ratios.append(lhs / rhs)
    report = ObservabilityReport(max(ratios) if ratios else 0.0, ratios, flagged)
    if flagged:
        raise NumericalError(
            f"observability red flag: {flagged} samples had vanishing "
            "observation with nonzero adjoint state",
            residual=report.max_ratio,
        )
    return report


# ---------------------------------------------------------------------------
# weighted solution-space norm report
# ---------------------------------------------------------------------------

def _log_quadrature(values_log: np.ndarray, weights: np.ndarray, dt: float) -> float:
    """log of sum_m weights[m]*dt*exp(values_log[m]) (entries may be -inf)."""
    mask = weights > 0
    if not mask.any():
        return -math.inf
    vals = values_log[mask] + np.log(weights[mask] * dt)
    vmax = vals.max()
    if vmax == -math.inf:
        return -math.inf
    return float(vmax + math.log(np.exp(vals - vmax).sum()))


def weighted_norm_components(
    y: Trajectory,
    z: Trajectory | None,
    h: Trajectory | None,
    params: CarlemanParams,
    c0: float = 2.5,
    omega: Region | None = None,
    f1: Trajectory | None = None,
    f2: Trajectory | None = None,
) -> dict:
    """log10 of each weighted component of the solution-space norm.

    All weights are time-only and blow up at t = T, so the quadrature runs
    over the levels strictly before T (the final node carries a singular
    weight; its exclusion is the discrete counterpart of the guard band) and
    the result is reported in log10 to stay finite.  The f1/f2 entries are
    the weighted admissibility norms of the extra sources of the coupled
    system.
    """
    if c0 < 2.5:
        raise ConfigurationError("c0 must be at least 5/2")
    g = y.grid
    T = g.T
    a0, m0 = params.a0, params.m0
    times = g.times()
    w = trapezoid_weights(g.nt)
    w = w.copy()
    w[-1] = 0.0  # singular weight at t = T excluded

    def exponent(coeff_beta_star, t):
        return _signed_exponent(
            params, T, float(t), [(WeightFamily.BETA_STAR, 0.0, coeff_beta_star)], False
        )

    def tau_log(fam, t):
        return log_weight_eval(WeightSpec(fam, params), T, float(t))

    def beta_hat(t):
        return _signed_exponent(
            params, T, float(t), [(WeightFamily.BETA_HAT, 0.0, 1.0)], False
        )

    def traj_component(traj, log_weight_fn, mask=None, sq_fn=None):
        sq = inner_levels(traj, traj, mask) if sq_fn is None else [sq_fn(f) for f in traj]
        logs = np.full(g.nt + 1, -math.inf)
        for m, t in enumerate(times):
            if w[m] != 0.0 and sq[m] > 0.0:
                logs[m] = log_weight_fn(t) + math.log(sq[m])
        return _log_quadrature(logs, w, g.dt)

    out = {}
    # || e^{a0 s b*} (tau_hat)^{-5/2} y ||_{L2}
    out["y_l2"] = 0.5 * traj_component(
        y, lambda t: 2.0 * exponent(a0, t) - 5.0 * tau_log(WeightFamily.TAU_HAT, t)
    )
    if z is not None:
        out["z_l2"] = 0.5 * traj_component(z, lambda t: 2.0 * exponent(a0, t))
    if h is not None:
        hmask = omega.face_indicator(g) if omega is not None else None
        out["h_l2"] = 0.5 * traj_component(
            h,
            lambda t: _signed_exponent(
                params, T, float(t),
                [
                    (WeightFamily.BETA_STAR, 0.0, 4.0 * a0),
                    (WeightFamily.BETA_HAT, 0.0, -2.0 * (m0 - 2.0)),
                ],
                False,
            )
            - 15.0 * tau_log(WeightFamily.TAU_HAT, t),
            mask=hmask,
        )
    # H2 and L-inf(V) style components
    def h2_sq(f):
        lap = laplacian(f)
        return inner(f, f) + inner(lap, lap)

    out["y_h2"] = 0.5 * traj_component(
        y,
        lambda t: 2.0 * exponent(a0, t) - 15.0 * tau_log(WeightFamily.TAU_HAT, t),
        sq_fn=h2_sq,
    )
    sup = -math.inf
    for m, t in enumerate(times):
        if w[m] == 0.0:
            continue
        hv = h1_norm(y[m])
        if hv <= 0:
            continue
        sup = max(
            sup,
            exponent(a0, t) - 7.5 * tau_log(WeightFamily.TAU_HAT, t) + math.log(hv),
        )
    out["y_sup_v"] = sup
    if z is not None:
        out["z_h2"] = 0.5 * traj_component(
            z,
            lambda t: 2.0 * exponent(a0, t) - 2.0 * c0 * tau_log(WeightFamily.TAU_STAR, t),
            sq_fn=h2_sq,
        )
    if f1 is not None:
        out["f1_residual"] = 0.5 * traj_component(
            f1,
            lambda t: 2.0 * exponent(m0, t) - 3.0 * tau_log(WeightFamily.TAU_STAR, t),
        )
    if f2 is not None:
        out["f2_residual"] = 0.5 * traj_component(
            f2,
            lambda t: 2.0 * exponent(2.0 * a0, t) - 3.0 * tau_log(WeightFamily.TAU_STAR, t),
        )
    log10 = math.log(10.0)
    return {k: (v / log10 if math.isfinite(v) else v) for k, v in out.items()}


