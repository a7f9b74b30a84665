import math

import numpy as np
import pytest

from stackstokes.errors import ConfigurationError, ConvergenceError
from stackstokes.grid import (
    Region,
    Trajectory,
    VelocityField,
    inner_space_time,
    norm,
    traj_norm,
)
from stackstokes.saddle import (
    RobustParams,
    estimate_gamma_threshold,
    robust_cost,
    robust_cost_grad,
    saddle_ascent_descent,
    saddle_from_coupled,
    verify_saddle,
)
from conftest import control_traj, eddy, make_problem, make_setup


def test_robust_params_validation():
    with pytest.raises(ConfigurationError):
        RobustParams(ell=-1.0, gamma=10.0)
    with pytest.raises(ConfigurationError):
        RobustParams(ell=1.0, gamma=0.0)
    with pytest.raises(ConfigurationError):
        RobustParams(ell=1.0, gamma=1.0, mu=-0.5)
    with pytest.warns(UserWarning):
        RobustParams(ell=10.0, gamma=0.01)


def test_cost_zero_when_tracking_matches(rng):
    # psi = v = 0 and yd equal to the h-driven state: all three terms vanish
    setup = make_setup(nt=16)
    g = setup["grid"]
    h = control_traj(g, rng, amp=0.3)
    pre = make_problem(setup, VelocityField.zeros(g), None)
    yd = pre.state(h, None, None)
    prob = make_problem(setup, VelocityField.zeros(g), yd)
    assert robust_cost(prob, h, None, None) == pytest.approx(0.0, abs=1e-18)


def test_cost_constant_tracking_value():
    # |y - yd| = 1 on an aligned quarter-area observation box, T = 1, mu = 1:
    # mu/2 * area * T * (two components) = 0.25
    setup = make_setup(nt=16)
    g = setup["grid"]
    setup = dict(setup)
    setup["obs"] = Region(0.5, 1.0, 0.5, 1.0)
    ones = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    prob = make_problem(setup, VelocityField.zeros(g), Trajectory.constant(-1.0 * ones))
    # state is identically zero, so y - yd = +1 everywhere
    assert robust_cost(prob, None, None, None) == pytest.approx(0.25, abs=1e-13)


def _oracle_cost(prob, h, psi, v):
    """Independently coded quadrature of the game cost (plain loops)."""
    g = prob.grid
    y = prob.state(h, psi, v)
    yd = prob.yd

    def face_weight_u(i):
        return 0.5 if i in (0, g.nx) else 1.0

    def face_weight_v(j):
        return 0.5 if j in (0, g.ny) else 1.0

    def ramp(tv, a, b, taper):
        if tv <= a or tv >= b:
            return 0.0
        s = min(tv - a, b - tv)
        if s >= taper:
            return 1.0
        return 0.5 * (1.0 - math.cos(math.pi * s / taper))

    reg = prob.follower_cutoff.region
    tp = prob.follower_cutoff.taper
    xu = [i * g.hx for i in range(g.nx + 1)]
    yu = [(j + 0.5) * g.hy for j in range(g.ny)]
    xv = [(i + 0.5) * g.hx for i in range(g.nx)]
    yv = [j * g.hy for j in range(g.ny + 1)]

    obs = prob.obs_region
    cell_in = [[1.0 if (obs.x0 <= xv[i] < obs.x1 and obs.y0 <= yu[j] < obs.y1) else 0.0
                for j in range(g.ny)] for i in range(g.nx)]

    def obs_u(i, j):
        if i == 0:
            return cell_in[0][j]
        if i == g.nx:
            return cell_in[g.nx - 1][j]
        return 0.5 * (cell_in[i - 1][j] + cell_in[i][j])

    def obs_v(i, j):
        if j == 0:
            return cell_in[i][0]
        if j == g.ny:
            return cell_in[i][g.ny - 1]
        return 0.5 * (cell_in[i][j - 1] + cell_in[i][j])

    total_track = 0.0
    total_v = 0.0
    total_psi = 0.0
    for m in range(g.nt + 1):
        wt = 0.5 if m in (0, g.nt) else 1.0
        track = vterm = pterm = 0.0
        for i in range(g.nx + 1):
            for j in range(g.ny):
                e = y[m].u[i, j] - (yd[m].u[i, j] if yd is not None else 0.0)
                track += face_weight_u(i) * obs_u(i, j) * e * e
                if v is not None:
                    chi = ramp(xu[i], reg.x0, reg.x1, tp) * ramp(yu[j], reg.y0, reg.y1, tp)
                    vterm += face_weight_u(i) * chi * v[m].u[i, j] ** 2
                if psi is not None:
                    pterm += face_weight_u(i) * psi[m].u[i, j] ** 2
        for i in range(g.nx):
            for j in range(g.ny + 1):
                e = y[m].v[i, j] - (yd[m].v[i, j] if yd is not None else 0.0)
                track += face_weight_v(j) * obs_v(i, j) * e * e
                if v is not None:
                    chi = ramp(xv[i], reg.x0, reg.x1, tp) * ramp(yv[j], reg.y0, reg.y1, tp)
                    vterm += face_weight_v(j) * chi * v[m].v[i, j] ** 2
                if psi is not None:
                    pterm += face_weight_v(j) * psi[m].v[i, j] ** 2
        total_track += wt * track
        total_v += wt * vterm
        total_psi += wt * pterm
    q = g.dt * g.cell_area
    p = prob.params
    return (0.5 * p.mu * q * total_track + 0.5 * p.ell**2 * q * total_v
            - 0.5 * p.gamma**2 * q * total_psi)


def test_cost_quadrature_oracle(rng):
    setup = make_setup(nt=8)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05))
    h = control_traj(g, rng, 0.05)
    psi = control_traj(g, rng, 0.05)
    v = control_traj(g, rng, 0.05)
    got = robust_cost(prob, h, psi, v)
    want = _oracle_cost(prob, h, psi, v)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_grad_zero_cases(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, VelocityField.zeros(g), None, mu=0.0)
    zero = Trajectory.zeros(g)
    g_psi, g_v = robust_cost_grad(prob, control_traj(g, rng), zero, zero)
    assert traj_norm(g_psi) == 0.0 and traj_norm(g_v) == 0.0


def test_grad_finite_difference_oracle(rng):
    # 12x12 grid, random base point, random directions
    setup = make_setup(nx=12, ny=12, nt=12)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.05)
    psi0 = control_traj(g, rng, 0.03)
    v0 = control_traj(g, rng, 0.03)
    g_psi, g_v = robust_cost_grad(prob, h, psi0, v0)
    step = 1e-4
    for _ in range(4):
        d = control_traj(g, rng)
        fd = (robust_cost(prob, h, psi0 + step * d, v0)
              - robust_cost(prob, h, psi0 - step * d, v0)) / (2 * step)
        an = inner_space_time(g_psi, d)
        assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-12)
        fd = (robust_cost(prob, h, psi0, v0 + step * d)
              - robust_cost(prob, h, psi0, v0 - step * d)) / (2 * step)
        an = inner_space_time(g_v, d)
        assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-12)


def test_saddle_from_coupled_zero_data():
    setup = make_setup(nt=16)
    prob = make_problem(setup, VelocityField.zeros(setup["grid"]), None)
    res = saddle_from_coupled(prob, None)
    assert res.converged
    assert traj_norm(res.psi_bar) == 0.0 and traj_norm(res.v_bar) == 0.0
    assert res.residual_psi == 0.0 and res.residual_v == 0.0


def test_saddle_from_coupled_mu_zero(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), None, mu=0.0)
    res = saddle_from_coupled(prob, control_traj(g, rng))
    assert traj_norm(res.psi_bar) == 0.0 and traj_norm(res.v_bar) == 0.0


def test_saddle_first_order_residuals(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.1),
                        picard_tol=1e-12)
    res = saddle_from_coupled(prob, control_traj(g, rng, 0.1))
    assert res.converged
    assert res.residual_psi <= 1e-6 and res.residual_v <= 1e-6
    # characterization holds exactly by construction
    p = prob.params
    for m in range(1, g.nt + 1):
        assert norm(res.psi_bar[m] - p.gamma**-2 * res.z[m]) == 0.0
        assert norm(res.v_bar[m] + p.ell**-2 * res.z[m]) == 0.0


def test_ascent_descent_trivial_data():
    setup = make_setup(nt=16)
    prob = make_problem(setup, VelocityField.zeros(setup["grid"]), None)
    res = saddle_ascent_descent(prob, None, rng=np.random.default_rng(0))
    assert res.converged and res.iterations == 1


def test_methods_agree(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.1)
    a = saddle_from_coupled(prob, h)
    b = saddle_ascent_descent(prob, h, rng=np.random.default_rng(0))
    num = traj_norm(a.psi_bar - b.psi_bar) + traj_norm(a.v_bar - b.v_bar)
    den = traj_norm(a.psi_bar) + traj_norm(a.v_bar)
    assert num / den <= 1e-5


def test_ascent_descent_divergence_below_threshold(rng):
    # on the slow 4x4 domain the scheme certifiably diverges at gamma = 0.1
    setup = make_setup(L=4.0, T=2.0, nt=16)
    g = setup["grid"]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05),
                            gamma=0.1)
    with pytest.raises(ConvergenceError, match="concavity threshold"):
        saddle_ascent_descent(prob, None, rng=np.random.default_rng(0))


def test_verify_saddle_probes(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.1)
    res = saddle_from_coupled(prob, h)
    rep = verify_saddle(prob, res, h, n_probes=30, rng=np.random.default_rng(5))
    assert rep.passed and rep.violations == 0
    assert rep.worst_psi_margin <= rep.tol
    assert rep.worst_v_margin >= -rep.tol


def test_verify_saddle_negative_control(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.1)
    res = saddle_from_coupled(prob, h)
    res.psi_bar = 1.5 * res.psi_bar  # deliberately broken "saddle"
    # the dual state is tiny here, so the sub-optimality of the broken point
    # is of order |g|^2/gamma^2; tighten the tolerance to that scale
    rep = verify_saddle(prob, res, h, n_probes=30, tol_scale=1e-12,
                        rng=np.random.default_rng(5))
    assert not rep.passed and rep.violations > 0


def test_concavity_convexity_along_probes(rng):
    # 5-point second differences of t -> J(psi + t d, v) are <= 0 (concave)
    # and the v-direction analogue is >= 0 (convex)
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.05)
    res = saddle_from_coupled(prob, h)
    for _ in range(5):
        d = control_traj(g, rng, 0.05)
        ts = [-2e-2, -1e-2, 0.0, 1e-2, 2e-2]
        Jp = [robust_cost(prob, h, res.psi_bar + t * d, res.v_bar) for t in ts]
        Jv = [robust_cost(prob, h, res.psi_bar, res.v_bar + t * d) for t in ts]
        for k in (1, 2, 3):
            assert Jp[k + 1] - 2 * Jp[k] + Jp[k - 1] <= 1e-12
            assert Jv[k + 1] - 2 * Jv[k] + Jv[k - 1] >= -1e-12


def test_gamma_threshold_bracket_deterministic(rng):
    setup = make_setup(L=4.0, T=2.0, nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05))
    grid = [0.05, 0.1, 0.2, 0.4, 1.0, 10.0]
    a = estimate_gamma_threshold(prob, None, grid, max_iter=300,
                                 rng=np.random.default_rng(0))
    b = estimate_gamma_threshold(prob, None, grid, max_iter=300,
                                 rng=np.random.default_rng(0))
    assert a.one_sided is None
    assert (a.lower, a.upper) == (b.lower, b.upper)
    assert a.outcomes == b.outcomes


def test_gamma_threshold_mu_zero_all_converged(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05), mu=0.0)
    res = estimate_gamma_threshold(prob, None, [0.05, 0.5, 5.0],
                                   rng=np.random.default_rng(0))
    assert res.one_sided == "all-converged"
    assert res.upper == 0.05


def test_grad_fd_oracle_with_convection(rng):
    # the nonlinear state map: gradients use the transposed convection
    # linearization around the current trajectory
    setup = make_setup(nx=12, ny=12, nt=12, T=0.5)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.02), control_traj(g, rng, 0.02),
                        convection_on=True, picard_tol=1e-12)
    h = control_traj(g, rng, 0.02)
    psi0 = control_traj(g, rng, 0.01)
    v0 = control_traj(g, rng, 0.01)
    g_psi, g_v = robust_cost_grad(prob, h, psi0, v0)
    step = 1e-5
    for _ in range(3):
        d = control_traj(g, rng)
        fd = (robust_cost(prob, h, psi0 + step * d, v0)
              - robust_cost(prob, h, psi0 - step * d, v0)) / (2 * step)
        an = inner_space_time(g_psi, d)
        assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-12)


def test_verify_saddle_zero_data_strict_margins():
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, VelocityField.zeros(g), None)
    res = saddle_from_coupled(prob, None)
    rep = verify_saddle(prob, res, None, n_probes=20, rng=np.random.default_rng(2))
    assert rep.passed
    # every random probe sits strictly inside the inequalities
    for kind, amp, m_psi, m_v, ok in rep.rows:
        if kind == "random":
            assert m_psi < 0.0 and m_v > 0.0


def test_verify_saddle_margins_skip_zero_probe():
    # at a converged saddle the gradient-aligned probe is zero to working
    # precision; the worst margins must come from the probes that move
    from stackstokes.harness import config_from_dict, default_config_dict, rng_stream

    cfg = config_from_dict(default_config_dict("saddle"))
    prob, h = cfg.problem(), cfg.leader_trajectory()
    res = saddle_from_coupled(prob, h)
    rep = verify_saddle(prob, res, h, n_probes=10,
                        rng=rng_stream(cfg.seed, "saddle-probes"))
    assert rep.rows[0][0] == "newton" and rep.rows[0][2:4] == (0.0, 0.0)
    assert rep.passed
    assert rep.worst_psi_margin < 0.0 < rep.worst_v_margin
