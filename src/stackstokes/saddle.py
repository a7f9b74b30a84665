"""The follower/disturbance game: cost, gradients, saddle points, verification.

The game cost for a fixed leader control h is

    J(psi, v; h) = mu/2 * |y - yd|^2_{Od x (0,T)}
                   + 1/2 * ( ell^2 * |chi^(1/2) v|^2_{O x (0,T)}
                             - gamma^2 * |psi|^2_{Q} )

with y the forward state driven by h*1_omega + v*chi_O + psi.  The saddle
point is computed two independent ways: from the coupled optimality system
(``saddle_from_coupled``) and by alternating gradient ascent/descent
(``saddle_ascent_descent``); agreement of the two is one of the package's
acceptance criteria.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .grid import (
    FaceMask,
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    inner_space_time,
    traj_norm,
    trapezoid_weights,
)
from .stokes import (
    Coupling,
    ForcingAssembly,
    SolverOptions,
    control_gradient,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_coupled_nonlinear,
    solve_forward,
)

__all__ = [
    "RobustParams",
    "SaddleProblem",
    "SaddleResult",
    "robust_cost",
    "robust_cost_grad",
    "saddle_from_coupled",
    "saddle_ascent_descent",
    "verify_saddle",
    "estimate_gamma_threshold",
]

# Empirical convergence thresholds on the gamma0-scan geometry (16x16 cells,
# 4x4 domain, mu = 1): the alternating scheme diverges below gamma in
# (0.158, 0.281) at ell = 10, and the coupled Picard sweep diverges below
# ell ~ 3e-3 at gamma = 10 (relaxation halving extends it that far).
EMPIRICAL_GAMMA0 = 0.23
EMPIRICAL_ELL0 = 0.003

FIRST_ORDER_TOL = 1e-6


@dataclass(frozen=True)
class RobustParams:
    """Weights (ell, gamma, mu) of the game cost."""

    ell: float
    gamma: float
    mu: float = 1.0

    def __post_init__(self):
        if not (self.ell > 0 and self.gamma > 0):
            raise ConfigurationError("ell and gamma must be strictly positive")
        if self.mu < 0:
            raise ConfigurationError("mu must be non-negative")
        if self.gamma < EMPIRICAL_GAMMA0 or self.ell < EMPIRICAL_ELL0:
            warnings.warn(
                f"gamma={self.gamma} or ell={self.ell} below the empirical "
                f"convergence thresholds ({EMPIRICAL_GAMMA0}, {EMPIRICAL_ELL0}); "
                "the saddle iteration may diverge",
                stacklevel=2,
            )


@dataclass
class SaddleProblem:
    """Geometry, data, and options bundle shared by the game operations."""

    grid: GridSpec
    omega: Region
    follower_cutoff: SmoothCutoff
    obs_region: Region
    y0: VelocityField
    yd: Trajectory | None
    params: RobustParams
    opts: SolverOptions = SolverOptions()

    def __post_init__(self):
        if self.y0.grid != self.grid:
            raise ConfigurationError("initial state on a different grid")
        if self.yd is not None and self.yd.grid != self.grid:
            raise ConfigurationError("target trajectory on a different grid")
        self._chi_mask = self.follower_cutoff.face_mask(self.grid)
        self._obs_mask = self.obs_region.face_mask(self.grid)
        self._omega_mask = self.omega.face_indicator(self.grid)
        self._coupling = Coupling.build(
            self.grid,
            self.follower_cutoff,
            self.obs_region,
            self.params.ell,
            self.params.gamma,
            self.params.mu,
        )
        # feedback-free coupling used by the plain tracking adjoint
        zero_u = np.zeros_like(self._chi_mask.on_u)
        zero_v = np.zeros_like(self._chi_mask.on_v)
        self._plain_coupling = Coupling(
            self.grid, FaceMask(zero_u, zero_v), self._chi_mask, self._obs_mask, 0.0
        )

    @property
    def coupling(self) -> Coupling:
        return self._coupling

    def forcing(self, h, psi, v) -> ForcingAssembly:
        return ForcingAssembly(
            self.grid,
            leader=h,
            follower=v,
            disturbance=psi,
            omega=self.omega if h is not None else None,
            chi=self.follower_cutoff if v is not None else None,
        )

    def state(self, h, psi, v) -> Trajectory:
        return solve_forward(self.y0, self.forcing(h, psi, v), self.opts)

    def data_scale(self, h) -> float:
        s = 1.0 if self.y0.max_abs() == 0 else self.y0.max_abs()
        if h is not None:
            s = max(s, h.max_abs())
        if self.yd is not None:
            s = max(s, self.yd.max_abs())
        return max(s, 1e-12)


def robust_cost(prob: SaddleProblem, h, psi, v) -> float:
    """Evaluate the game cost; the state is recomputed by the forward solver."""
    y = prob.state(h, psi, v)
    p = prob.params
    err = y if prob.yd is None else y - prob.yd
    track = inner_space_time(err, err, prob._obs_mask)
    cost = 0.5 * p.mu * track
    if v is not None:
        cost += 0.5 * p.ell**2 * inner_space_time(v, v, prob._chi_mask)
    if psi is not None:
        cost -= 0.5 * p.gamma**2 * inner_space_time(psi, psi)
    return cost


def tracking_adjoint(prob: SaddleProblem, y: Trajectory) -> Trajectory:
    """Backward dual state driven by mu*(y - yd) on the observation set.

    Exact transpose of the forward chain (with the convection linearization
    around y when convection is on), so gradients built from it match central
    differences of :func:`robust_cost` to quadrature round-off.
    """
    w = trapezoid_weights(prob.grid.nt)
    err = y if prob.yd is None else y - prob.yd
    g1 = Trajectory(
        prob.grid,
        [
            err[m].mul_mask(prob._obs_mask) * (prob.params.mu * w[m])
            for m in range(prob.grid.nt + 1)
        ],
    )
    link = y if prob.opts.convection_on else None
    adj = solve_backward_adjoint(
        VelocityField.zeros(prob.grid), g1, None, link, prob._plain_coupling, prob.opts
    )
    return adj.phi


def _grad_directions(prob: SaddleProblem, h, psi, v):
    """Unweighted first-order directions (-gamma^2 psi + z, ell^2 v + z)."""
    g = prob.grid
    p = prob.params
    y = prob.state(h, psi, v)
    phi = tracking_adjoint(prob, y)
    z = control_gradient(phi)  # trapezoid-corrected dual state, level 0 zeroed
    psi_fields = []
    v_fields = []
    for m in range(g.nt + 1):
        zp = z[m]
        psi_fields.append(zp if psi is None else zp - p.gamma**2 * psi[m])
        v_fields.append(zp if v is None else zp + p.ell**2 * v[m])
    return Trajectory(g, psi_fields), Trajectory(g, v_fields)


def robust_cost_grad(prob: SaddleProblem, h, psi, v):
    """Adjoint gradients of the cost with respect to (psi, v).

    Returns trajectories (g_psi, g_v) that pair with perturbations under the
    trapezoidal space-time inner product:  g_v = chi*(ell^2 v + z) and
    g_psi = -gamma^2 psi + z with z the tracking dual state.
    """
    d_psi, d_v = _grad_directions(prob, h, psi, v)
    return d_psi, d_v.mul_mask(prob._chi_mask)


@dataclass
class SaddleResult:
    psi_bar: Trajectory
    v_bar: Trajectory
    y: Trajectory
    z: Trajectory | None
    residual_psi: float
    residual_v: float
    converged: bool
    iterations: int
    cost: float
    tolerance: float = FIRST_ORDER_TOL


def _controls_from_dual(prob: SaddleProblem, z: Trajectory):
    """psi = gamma^-2 z and v = -ell^-2 z, with the inert level-0 slot zeroed."""
    g = prob.grid
    p = prob.params
    zero = VelocityField.zeros(g)
    psi = Trajectory(g, [zero.copy()] + [z[m] * p.gamma**-2 for m in range(1, g.nt + 1)])
    v = Trajectory(g, [zero.copy()] + [z[m] * (-(p.ell**-2)) for m in range(1, g.nt + 1)])
    return psi, v


def saddle_from_coupled(prob: SaddleProblem, h: Trajectory | None) -> SaddleResult:
    """Saddle point via the coupled optimality system.

    Solves the forward-backward pair, reads off the controls from the dual
    state, and certifies them with first-order residuals measured through the
    independent adjoint-gradient path.
    """
    if prob.opts.convection_on:
        sol = solve_coupled_nonlinear(
            h, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega
        )
    else:
        sol = solve_coupled_linear(
            h, prob.y0, prob.yd, prob.coupling, prob.opts, omega=prob.omega
        )
    psi, v = _controls_from_dual(prob, sol.z)
    g_psi, g_v = robust_cost_grad(prob, h, psi, v)
    res_psi = traj_norm(g_psi)
    res_v = traj_norm(g_v)
    cost = robust_cost(prob, h, psi, v)
    tol = FIRST_ORDER_TOL * prob.data_scale(h)
    return SaddleResult(
        psi, v, sol.y, sol.z, res_psi, res_v,
        sol.converged and res_psi <= tol and res_v <= tol,
        sol.iterations, cost, tol,
    )


def _estimate_tracking_lipschitz(prob: SaddleProblem, n_steps: int = 5,
                                 rng: np.random.Generator | None = None) -> float:
    """Largest eigenvalue of the v-tracking Hessian by a few power iterations."""
    if rng is None:
        rng = np.random.default_rng(2024)
    g = prob.grid
    zero = VelocityField.zeros(g)

    def rand_field():
        u = rng.standard_normal((g.nx + 1, g.ny))
        v = rng.standard_normal((g.nx, g.ny + 1))
        return VelocityField(g, u, v).apply_noslip()

    d = Trajectory(g, [zero.copy()] + [rand_field() for _ in range(g.nt)])
    d = d.mul_mask(prob._chi_mask)
    lam = 0.0
    base = SaddleProblem(
        prob.grid, prob.omega, prob.follower_cutoff, prob.obs_region,
        zero, None, prob.params, dataclasses.replace(prob.opts, convection_on=False),
    )
    for _ in range(n_steps):
        nd = traj_norm(d)
        if nd == 0:
            return 0.0
        d = d * (1.0 / nd)
        y = base.state(None, None, d)
        phi = tracking_adjoint(base, y)
        d_new = control_gradient(phi, prob._chi_mask)
        lam = inner_space_time(d, d_new)
        d = d_new
    return max(lam, 0.0)


def saddle_ascent_descent(
    prob: SaddleProblem,
    h: Trajectory | None,
    step_v: float | None = None,
    step_psi: float | None = None,
    max_iter: int = 2000,
    tol: float | None = None,
    rng: np.random.Generator | None = None,
) -> SaddleResult:
    """Alternating gradient descent in v and ascent in psi.

    Independent of the coupled-system machinery.  Fixed steps
    1/(ell^2 + L) and 1/gamma^2 (L an estimated tracking Lipschitz
    constant) make the iteration a contraction for large gamma, ell;
    divergence of the psi iterate is reported as evidence that gamma sits
    below its threshold.
    """
    g = prob.grid
    p = prob.params
    scale = prob.data_scale(h)
    if tol is None:
        tol = 1e-9 * scale
    if step_v is None or step_psi is None:
        lam = _estimate_tracking_lipschitz(prob, rng=rng)
        if step_v is None:
            # factor 2: the masked power iteration can underestimate the
            # tracking norm seen by the preconditioned direction
            step_v = 1.0 / (p.ell**2 + 2.0 * lam)
        if step_psi is None:
            step_psi = 1.0 / p.gamma**2

    psi = Trajectory.zeros(g)
    v = Trajectory.zeros(g)
    res_psi = res_v = math.inf
    for it in range(1, max_iter + 1):
        # descent direction preconditioned by the follower weight: the true
        # gradient chi*(ell^2 v + z) contracts arbitrarily slowly where the
        # cutoff tapers, while the representer ell^2 v + z has the same zero
        # set and a chi-independent contraction factor
        d_psi, d_v = _grad_directions(prob, h, psi, v)
        res_v = traj_norm(d_v.mul_mask(prob._chi_mask))
        v = v - step_v * d_v
        d_psi, _ = _grad_directions(prob, h, psi, v)
        res_psi = traj_norm(d_psi)
        psi = psi + step_psi * d_psi
        if max(res_psi, res_v) <= tol:
            y = prob.state(h, psi, v)
            cost = robust_cost(prob, h, psi, v)
            return SaddleResult(
                psi, v, y, None, res_psi, res_v, True, it, cost, tol
            )
        if traj_norm(psi) > 1e4 * scale or not math.isfinite(res_psi):
            raise ConvergenceError(
                "disturbance iterate diverged: gamma is below the concavity "
                "threshold gamma0 for this problem",
                residual=res_psi,
                iterations=it,
            )
    raise ConvergenceError(
        f"ascent-descent did not reach tolerance {tol:.2e} "
        f"(residuals {res_psi:.2e}, {res_v:.2e})",
        residual=max(res_psi, res_v),
        iterations=max_iter,
    )


@dataclass
class SaddleProbeReport:
    n_probes: int
    violations: int
    worst_psi_margin: float   # max of J(psi+d, v) - J(psi, v) over nonzero d; <= tol at a saddle
    worst_v_margin: float     # min of J(psi, v+d) - J(psi, v) over nonzero d; >= -tol at a saddle
    tol: float
    rows: list = field(default_factory=list)  # (kind, magnitude, margin, ok)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_saddle(
    prob: SaddleProblem,
    result: SaddleResult,
    h: Trajectory | None,
    n_probes: int = 100,
    magnitudes=(1e-3, 1e-2, 1e-1),
    tol_scale: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> SaddleProbeReport:
    """Probe the saddle inequalities with gradient-aligned and random probes.

    For perturbations d the definition of a saddle requires
    J(psi+d, v) <= J(psi, v) + tol and J(psi, v+d) >= J(psi, v) - tol.
    Raises nothing; the report carries the worst margins and any violations.
    The worst margins skip probes that are zero to working precision (the
    gradient-aligned probe at a converged saddle), whose margin is exactly 0
    and would hide those of the random probes; they are 0.0 if no probe moves.
    """
    if rng is None:
        rng = np.random.default_rng(11)
    g = prob.grid
    J0 = robust_cost(prob, h, result.psi_bar, result.v_bar)
    tol = tol_scale * max(1.0, abs(J0), prob.data_scale(h) ** 2)
    # probe amplitudes relative to the candidate itself, so a shifted point
    # is caught by its first-order term before the quadratic one dominates
    reference = max(
        traj_norm(result.psi_bar), traj_norm(result.v_bar), prob.data_scale(h)
    )

    def rand_traj(amp):
        zero = VelocityField.zeros(g)
        fields = [zero.copy()]
        for _ in range(g.nt):
            u = rng.standard_normal((g.nx + 1, g.ny))
            v_ = rng.standard_normal((g.nx, g.ny + 1))
            fields.append(VelocityField(g, u, v_).apply_noslip() * amp)
        return Trajectory(g, fields)

    g_psi, g_v = robust_cost_grad(prob, h, result.psi_bar, result.v_bar)

    rows = []
    violations = 0
    psi_margins = []
    v_margins = []

    def moves(d):
        return traj_norm(d) > np.finfo(float).eps * reference

    def record(kind, amp, d_psi, d_v, counted=(True, True)):
        nonlocal violations
        m_psi = robust_cost(prob, h, result.psi_bar + d_psi, result.v_bar) - J0
        m_v = robust_cost(prob, h, result.psi_bar, result.v_bar + d_v) - J0
        ok = (m_psi <= tol) and (m_v >= -tol)
        if not ok:
            violations += 1
        if counted[0]:
            psi_margins.append(m_psi)
        if counted[1]:
            v_margins.append(m_v)
        rows.append((kind, amp, m_psi, m_v, ok))

    # two deterministic probes at the concave/convex model optimizers: the
    # sharpest detectors of a first-order violation, but zero to working
    # precision once the gradient has converged
    p = prob.params
    d_psi, d_v = g_psi * (1.0 / p.gamma**2), g_v * (-1.0 / p.ell**2)
    record("newton", 1.0, d_psi, d_v, (moves(d_psi), moves(d_v)))
    # random probes have amplitude magnitudes[k] * reference, far above round-off
    for k in range(max(n_probes - 1, 0)):
        amp = magnitudes[k % len(magnitudes)] * reference
        d = rand_traj(amp)
        record("random", amp, d, d)
    return SaddleProbeReport(n_probes, violations, max(psi_margins, default=0.0),
                             min(v_margins, default=0.0), tol, rows)


@dataclass
class GammaThresholdResult:
    lower: float | None     # largest gamma that certifiably diverges
    upper: float | None     # smallest gamma that certifiably converges
    one_sided: str | None   # 'all-converged' / 'none-converged' / None
    outcomes: list          # (gamma, converged) for every probed gamma


def estimate_gamma_threshold(
    prob: SaddleProblem,
    h: Trajectory | None,
    gamma_grid,
    max_iter: int = 400,
    rng: np.random.Generator | None = None,
) -> GammaThresholdResult:
    """Bracket the convergence threshold gamma0 by bisection over a gamma grid.

    The predicate is "the alternating ascent-descent scheme converges"; the
    returned bracket is reproducible because every probe is deterministic for
    a fixed rng seed.
    """
    gammas = sorted(float(x) for x in gamma_grid)
    if len(gammas) < 2:
        raise ConfigurationError("gamma grid needs at least two candidates")
    outcomes = {}

    def converges(gamma: float) -> bool:
        if gamma in outcomes:
            return outcomes[gamma]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = RobustParams(prob.params.ell, gamma, prob.params.mu)
            sub = SaddleProblem(
                prob.grid, prob.omega, prob.follower_cutoff, prob.obs_region,
                prob.y0, prob.yd, params, prob.opts,
            )
            try:
                saddle_ascent_descent(sub, h, max_iter=max_iter, rng=rng)
                ok = True
            except ConvergenceError:
                ok = False
        outcomes[gamma] = ok
        return ok

    lo, hi = 0, len(gammas) - 1
    if converges(gammas[lo]):
        return GammaThresholdResult(
            None, gammas[lo], "all-converged", sorted(outcomes.items())
        )
    if not converges(gammas[hi]):
        return GammaThresholdResult(
            gammas[hi], None, "none-converged", sorted(outcomes.items())
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if converges(gammas[mid]):
            hi = mid
        else:
            lo = mid
    return GammaThresholdResult(
        gammas[lo], gammas[hi], None, sorted(outcomes.items())
    )
