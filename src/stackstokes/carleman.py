"""Singular exponential weight families and their numeric diagnostics.

Two families of space-time weights drive the observability machinery: the
``alpha``/``xi`` family with the open time factor t(T-t) (poles at both
endpoints) and the ``beta``/``tau`` family whose time factor is frozen to
T^2/4 on [0, T/2] (finite at t = 0, pole only at t = T).  A weight is a
family at an eta value in [0, eta_norm]; the starred and hatted spatial
extremes of the paper are a family at eta = 0 and at eta = eta_norm.

The weights are evaluated on arrays: a scalar or an array of times, and
eta values that broadcast against them (one per face, say), so that every
weight of a run is one call.  The public evaluators raise PoleError when a
time, or any time of an array, lies at or beyond a pole.

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
from functools import partial, reduce

import numpy as np

from .errors import ConfigurationError, NumericalError, PoleError
from .grid import (
    GridSpec,
    Region,
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
    a0 >= 2, a0 < m0 <= a0 + 2.  ``eta_norm`` bounds the eta profile, whose
    maximum is 1 on every grid, so it must be at least 1.
    """

    lam: float
    s: float
    a0: float = 2.0
    m0: float = 3.5
    eta_norm: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.s <= 0:
            raise ConfigurationError("lam and s must be positive")
        if not self.eta_norm >= 1.0:
            raise ConfigurationError(f"config field 'carleman.eta_norm' must be at least 1, "
                                     f"the maximum of the eta profile, got {self.eta_norm!r}")
        a0, m0 = self.a0, self.m0
        if not (1.25 <= a0 and a0 + 1 < m0 < 2 * a0 and m0 < 2 + a0):
            raise ConfigurationError(
                f"exponent constants violate 5/4 <= a0 < a0+1 < m0 < 2*a0, "
                f"m0 < 2+a0: a0={a0}, m0={m0}"
            )


class WeightFamily(str, Enum):
    ALPHA = "alpha"
    XI = "xi"
    BETA = "beta"
    TAU = "tau"


_ALPHA_KIND = {WeightFamily.ALPHA, WeightFamily.XI}


def _libm(f, x) -> np.ndarray:
    """``f`` from ``math`` applied to every entry of ``x``.

    numpy's vectorized exp and log round a few per cent of their results
    differently from libm in the last bit; going through ``math`` gives an
    array of times the bits of the scalar formula, which replayed metrics
    and CSV files pin.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.flat), float, x.size).reshape(x.shape)


def _exp709(x):
    """e^x, saturated to +inf from x = 709 on; a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 709.0, _libm(math.exp, np.minimum(x, 709.0)), math.inf)
    return out if out.ndim else float(out)


def _time_log(T: float, t, alpha_kind: bool):
    """5 log of the time denominator at the times ``t``, and where it is finite.

    The open factor t(T-t) has poles at 0 and T, the frozen one (T^2/4 up
    to T/2) only at T; at and beyond a pole the log is -inf.
    """
    t = np.asarray(t, dtype=float)
    if alpha_kind:
        live = (0.0 < t) & (t < T)
        tt = t * (T - t)
    else:
        live = (0.0 <= t) & (t < T)
        tt = np.where(t <= T / 2.0, T * T / 4.0, t * (T - t))
    return np.where(live, 5.0 * _libm(math.log, np.where(live, tt, 1.0)), -math.inf), live


def _log_num(params: CarlemanParams, family: WeightFamily, eta_value):
    """log of the spatial numerator of the family at eta_value.

    The alpha/beta numerators decrease in eta and the xi/tau ones increase,
    so each family takes its extremes at eta = 0 and at eta = eta_norm.
    """
    lam, M = params.lam, params.eta_norm
    eta = np.asarray(eta_value, dtype=float)
    bad = eta[~((0.0 <= eta) & (eta <= M))]
    if bad.size:
        raise ConfigurationError(f"eta value {bad[0]} outside [0, {M}]")
    if family in (WeightFamily.ALPHA, WeightFamily.BETA):
        # e^{12 lam M} - e^{lam (10 M + eta)} = e^{12 lam M} (1 - e^{-lam(2M - eta)})
        return 12.0 * lam * M + _libm(math.log1p, -_libm(math.exp, -lam * (2.0 * M - eta)))
    return lam * (10.0 * M + eta)


def log_weight_eval(params: CarlemanParams, family: WeightFamily, T: float, t,
                    eta_value=0.0):
    """log of the family value at the times t and eta (arrays broadcast).

    A float for scalar arguments; PoleError if any time is at or beyond a
    singular endpoint, ConfigurationError if an eta lies outside [0, eta_norm].
    """
    tlog, live = _time_log(T, t, family in _ALPHA_KIND)
    if not live.all():
        raise PoleError(f"t={np.asarray(t)[~live][0]} is at a pole of the "
                        f"{family.value} weight")
    out = _log_num(params, family, eta_value) - tlog
    return out if out.ndim else float(out)


def alpha_ratio(lam: float, eta_norm: float = 1.0) -> float:
    """Spatial min/max ratio of the singular weight: alpha_hat / alpha_star.

    Reduces to the logistic function 1/(1 + e^{-lam*eta_norm}), hence tends
    to 1 as lam -> inf and to 1/2 as lam -> 0+.
    """
    if lam <= 0 or eta_norm <= 0:
        raise ConfigurationError("lam and eta_norm must be positive")
    x = lam * eta_norm
    return 1.0 / (1.0 + math.exp(-x))


def _signed_exponent(params: CarlemanParams, T: float, t, terms) -> np.ndarray:
    """Stable value of  s * sum_j coeff_j * family_j  at the times t.

    ``terms`` is a list of (family, eta_value, coeff) of one time family;
    the eta values (one per face, say) broadcast against ``t`` (a column of
    times, then).  The numerators are combined at a common exponential scale
    before the (possibly huge) time factor multiplies in, so mixed-sign
    combinations never hit inf - inf.  At a pole, and for magnitudes beyond
    e^709, the value saturates to +-inf by the sign of the combination; a
    combination that cancels exactly gives 0.
    """
    alpha_kind = terms[0][0] in _ALPHA_KIND
    if any((fam in _ALPHA_KIND) != alpha_kind for fam, _, _ in terms):
        raise ConfigurationError("cannot mix open and flat-start time factors")
    logs = [_log_num(params, fam, eta_value) for fam, eta_value, _ in terms]
    L = reduce(np.maximum, logs)
    ssum = sum(coeff * _libm(math.exp, l - L) for (_, _, coeff), l in zip(terms, logs))
    zero = ssum == 0.0
    tlog, _ = _time_log(T, t, alpha_kind)
    mag = math.log(params.s) + L + _libm(math.log, np.where(zero, 1.0, abs(ssum))) - tlog
    return np.where(zero, 0.0, np.copysign(_exp709(mag), ssum))


# ---------------------------------------------------------------------------
# spatial profile eta
# ---------------------------------------------------------------------------

def _eta(grid: GridSpec, x, y) -> np.ndarray:
    """The sine-product profile at the points (x, y): 1 at the center, 0 on the walls.

    It is positive inside the box and its gradient vanishes only at the
    center, which config validation keeps strictly inside omega0.
    """
    return np.sin(np.pi * np.asarray(x) / grid.Lx) * np.sin(np.pi * np.asarray(y) / grid.Ly)


# ---------------------------------------------------------------------------
# appendix inequality checks
# ---------------------------------------------------------------------------

@dataclass
class DominationReport:
    max_log_ratio: float
    max_ratio: float
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
    M = params.eta_norm
    xi_hat_log = log_weight_eval(params, WeightFamily.XI, T, t_grid, M)
    expo = _signed_exponent(params, T, t_grid, [(WeightFamily.ALPHA, 0.0, 1.0),
                                                (WeightFamily.ALPHA, M, -(1.0 + epsilon))])
    logs = expo - M1 * math.log(params.s) - M2 * math.log(params.lam) - M1 * xi_hat_log
    max_log = float(np.max(logs))
    return DominationReport(max_log, _exp709(max_log), t_grid, logs)


@dataclass
class LaplacianBoundReport:
    max_ratio: float
    ratios: list


def check_laplacian_weight_bound(
    params: CarlemanParams,
    T: float,
    M1t: float,
    M2t: float,
    u_samples,
    omega: Region,
    n_times=(128,),
) -> list:
    """Local-vs-global weighted Laplacian bound of the appendix.

    Computes, for each sampled divergence-free field u, the quotient

        s^M1 lam^M2 * int_{omega x (0,T)} e^{-4 s a_hat - 2 a0 s a*}
                                           (xi_hat)^M1 |Lap u|^2
        ---------------------------------------------------------------
        s^{-1}      * int_{Q x (0,T)}     e^{-2 m0 s a*} (xi_hat)^{-1}
                                           |Lap u|^2

    on a guard-banded time grid of each size in ``n_times``, and returns one
    :class:`LaplacianBoundReport` per size.  The fields do not depend on
    time, so the Laplacian pairings are computed once for all the grids.
    Requires the appendix regime a0 >= 2, a0 < m0 <= a0 + 2.
    """
    a0, m0 = params.a0, params.m0
    if not (a0 >= 2.0 and a0 < m0 <= a0 + 2.0):
        raise ConfigurationError(
            f"appendix regime needs a0 >= 2 and a0 < m0 <= a0+2, got a0={a0}, m0={m0}"
        )
    mask = omega.face_mask(u_samples[0].grid)
    pairings = []
    for u in u_samples:
        lap = laplacian(u)
        pairings.append((inner(lap, lap, mask), inner(lap, lap)))
    M = params.eta_norm

    def report(n_time):
        guard = T / (2 * n_time)
        t_grid = np.linspace(guard, T - guard, n_time)
        dt = float(t_grid[1] - t_grid[0])
        xi_hat_log = log_weight_eval(params, WeightFamily.XI, T, t_grid, M)

        def log_time_integral(terms, power):
            vals = _signed_exponent(params, T, t_grid, terms) + power * xi_hat_log
            vmax = vals.max()
            if vmax == -math.inf:
                return -math.inf
            return vmax + math.log(np.exp(vals - vmax).sum() * dt)

        lhs_t = log_time_integral(
            [(WeightFamily.ALPHA, M, -4.0), (WeightFamily.ALPHA, 0.0, -2.0 * a0)], M1t)
        rhs_t = log_time_integral([(WeightFamily.ALPHA, 0.0, -2.0 * m0)], -1.0)
        ratios = []
        for local, total in pairings:
            if total == 0.0 or local == 0.0:
                ratios.append(0.0)
                continue
            log_ratio = (
                M1t * math.log(params.s)
                + M2t * math.log(params.lam)
                + lhs_t
                + math.log(local)
                - (-math.log(params.s) + rhs_t + math.log(total))
            )
            ratios.append(_exp709(log_ratio))
        return LaplacianBoundReport(max(ratios), ratios)

    return [report(n) for n in n_times]


# ---------------------------------------------------------------------------
# observability diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ObservabilityReport:
    max_ratio: float
    ratios: list


def _observability_weights(params: CarlemanParams, g: GridSpec, omega: Region):
    """The weights of the observability quotient on the levels of g.

    Returns the time-only weights e^{-2 s m0 b*} (tau*)^3 of phi and
    e^{-2 s (a0+1) b*} (tau*)^3 of theta, and the (nt+1, n_faces) weight
    e^{s(-4 a0 b* + 2 (m0-2) b(eta))} (tau_hat)^15 of the observation of phi,
    times its quadrature weights (trapezoid in time, cell area, the face mask
    of omega).  The level at T, where the weights are singular, gets 0.
    """
    a0, m0, T = params.a0, params.m0, g.T
    times = g.times()
    t = times[times < T]
    n = t.size
    tau_star_log = log_weight_eval(params, WeightFamily.TAU, T, t)

    def time_weight(coeff):
        out = np.zeros(g.nt + 1)
        out[:n] = _exp709(
            _signed_exponent(params, T, t, [(WeightFamily.BETA, 0.0, coeff)])
            + 3.0 * tau_star_log
        )
        return out

    # the observation weight is needed on the faces of omega only
    mask = omega.face_mask(g).data
    on = np.flatnonzero(mask)
    eta = VelocityField.from_functions(g, partial(_eta, g), partial(_eta, g)).data[on]
    expo = _signed_exponent(
        params, T, t[:, None],
        [(WeightFamily.BETA, 0.0, -4.0 * a0), (WeightFamily.BETA, eta, 2.0 * (m0 - 2.0))],
    )
    expo += 15.0 * log_weight_eval(params, WeightFamily.TAU, T, t, params.eta_norm)[:, None]
    rhs_w = np.zeros((g.nt + 1, g.n_faces))
    rhs_w[:n, on] = np.exp(np.minimum(expo, 709.0, out=expo)) * mask[on]
    rhs_w *= (trapezoid_weights(g.nt) * g.dt * g.cell_area)[:, None]
    return time_weight(-2.0 * m0), time_weight(-2.0 * (a0 + 1.0)), rhs_w


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
    wq = trapezoid_weights(g.nt) * g.dt
    lhs_phi_w, lhs_theta_w, rhs_w = _observability_weights(params, g, omega)

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
    report = ObservabilityReport(max(ratios) if ratios else 0.0, ratios)
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
) -> dict:
    """log10 of each weighted component of the solution-space norm.

    All weights are time-only and blow up at t = T, so the quadrature runs
    over the levels strictly before T (the final node carries a singular
    weight; its exclusion is the discrete counterpart of the guard band) and
    the result is reported in log10 to stay finite.
    """
    if c0 < 2.5:
        raise ConfigurationError("c0 must be at least 5/2")
    g = y.grid
    T = g.T
    a0, m0, M = params.a0, params.m0, params.eta_norm
    t = g.times()[:-1]  # singular weight at t = T excluded
    w = trapezoid_weights(g.nt).copy()
    w[-1] = 0.0

    s_a0 = _signed_exponent(params, T, t, [(WeightFamily.BETA, 0.0, a0)])
    tau_hat = log_weight_eval(params, WeightFamily.TAU, T, t, M)
    tau_star = log_weight_eval(params, WeightFamily.TAU, T, t)

    def traj_component(sq, log_weight):
        """Half the log of the trapezoid sum of e^{log_weight} sq before T."""
        sq = np.asarray(sq)[:-1]
        pos = sq > 0.0
        logs = np.full(g.nt + 1, -math.inf)
        logs[:-1][pos] = log_weight[pos] + _libm(math.log, sq[pos])
        return 0.5 * _log_quadrature(logs, w, g.dt)

    # H2 and L-inf(V) style components
    def h2_sq(f):
        lap = laplacian(f)
        return inner(f, f) + inner(lap, lap)

    out = {}
    # || e^{a0 s b*} (tau_hat)^{-5/2} y ||_{L2}
    out["y_l2"] = traj_component(inner_levels(y, y), 2.0 * s_a0 - 5.0 * tau_hat)
    if z is not None:
        out["z_l2"] = traj_component(inner_levels(z, z), 2.0 * s_a0)
    if h is not None:
        hmask = omega.face_indicator(g) if omega is not None else None
        h_expo = _signed_exponent(params, T, t, [(WeightFamily.BETA, 0.0, 4.0 * a0),
                                                 (WeightFamily.BETA, M, -2.0 * (m0 - 2.0))])
        out["h_l2"] = traj_component(inner_levels(h, h, hmask), h_expo - 15.0 * tau_hat)
    out["y_h2"] = traj_component([h2_sq(f) for f in y], 2.0 * s_a0 - 15.0 * tau_hat)
    hv = np.array([h1_norm(y[m]) for m in range(g.nt)])
    pos = hv > 0
    out["y_sup_v"] = (
        float(np.max((s_a0 - 7.5 * tau_hat)[pos] + _libm(math.log, hv[pos])))
        if pos.any() else -math.inf
    )
    if z is not None:
        out["z_h2"] = traj_component([h2_sq(f) for f in z], 2.0 * s_a0 - 2.0 * c0 * tau_star)
    log10 = math.log(10.0)
    return {k: (v / log10 if math.isfinite(v) else v) for k, v in out.items()}
