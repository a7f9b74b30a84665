import dataclasses

import numpy as np
import pytest

from stackstokes import leader
from stackstokes.errors import ConfigurationError, NumericalError
from stackstokes.grid import (
    Trajectory,
    VelocityField,
    inner,
    inner_space_time,
    norm,
    traj_norm,
)
from stackstokes.leader import (
    PenaltyConfig,
    control_to_terminal,
    penalized_gradient,
    solve_null_control_cg,
    solve_null_control_nonlinear,
)
from stackstokes.harness import config_from_dict, default_config_dict
from conftest import control_traj, eddy, make_problem, make_setup


def test_penalty_config_validation():
    with pytest.raises(ConfigurationError):
        PenaltyConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-2, 1e-2))
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-3, 1e-2))
    cfg = PenaltyConfig(epsilon=1e-3, epsilon_schedule=(1e-2, 1e-3))
    assert cfg.epsilon_schedule == (1e-2, 1e-3)


def test_penalty_config_refuses_an_epsilon_off_the_schedule():
    # the CG solves and reports the schedule's last epsilon, and
    # penalized_gradient reads epsilon: the two must be one number
    with pytest.raises(ConfigurationError, match=r"0\.0001.*1e-05"):
        PenaltyConfig(epsilon_schedule=(1e-2, 1e-3, 1e-4, 1e-5))
    with pytest.raises(ConfigurationError, match="last entry"):
        PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-2, 1e-3))
    assert PenaltyConfig(epsilon=1e-5, epsilon_schedule=(1e-2, 1e-5)).epsilon == 1e-5
    assert PenaltyConfig(epsilon=1e-2).epsilon_schedule == ()


def test_terminal_zero_data():
    setup = make_setup(nt=16)
    prob = make_problem(setup, VelocityField.zeros(setup["grid"]), None)
    assert norm(control_to_terminal(prob, None)) == 0.0


def test_terminal_affine_in_control(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.1),
                        picard_tol=1e-12)
    h1 = control_traj(g, rng, 0.3)
    h2 = control_traj(g, rng, 0.3)
    y00 = control_to_terminal(prob, None)
    y1 = control_to_terminal(prob, h1) - y00
    y2 = control_to_terminal(prob, h2) - y00
    y12 = control_to_terminal(prob, h1 + h2) - y00
    assert norm(y12 - y1 - y2) <= 1e-10 * max(norm(y12), 1.0)


def test_terminal_tolerance_refinement(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    h = control_traj(g, rng, 0.2)
    coarse = make_problem(setup, eddy(g, 0.1), None, picard_tol=1e-9)
    fine = make_problem(setup, eddy(g, 0.1), None, picard_tol=5e-10)
    a = control_to_terminal(coarse, h)
    b = control_to_terminal(fine, h)
    assert norm(a - b) <= 1e-7 * max(norm(b), 1e-12)


def test_penalized_gradient_zero_data():
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, VelocityField.zeros(g), None)
    grad = penalized_gradient(prob, Trajectory.zeros(g), PenaltyConfig(epsilon=1e-3))
    assert traj_norm(grad) == 0.0


def test_penalized_gradient_fd_oracle(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), None, picard_tol=1e-12)
    cfg = PenaltyConfig(epsilon=1e-3)
    omask = setup["omega"].face_indicator(g)
    h0 = control_traj(g, rng, 0.1)
    grad = penalized_gradient(prob, h0, cfg)

    def objective(h):
        yT = control_to_terminal(prob, h)
        return 0.5 * inner_space_time(h, h, omask) + 0.5 / cfg.epsilon * inner(yT, yT)

    step = 1e-5
    for _ in range(3):
        d = control_traj(g, rng)
        fd = (objective(h0 + step * d) - objective(h0 - step * d)) / (2 * step)
        an = inner_space_time(grad, d)
        assert abs(fd - an) <= 1e-5 * max(abs(fd), 1e-12)


def test_penalized_gradient_large_epsilon_limit(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), None, picard_tol=1e-12)
    h0 = control_traj(g, rng, 0.1)
    grad = penalized_gradient(prob, h0, PenaltyConfig(epsilon=1e12))
    masked = h0.mul_mask(setup["omega"].face_indicator(g))
    assert traj_norm(grad - masked) <= 1e-9 * traj_norm(masked)


def test_cg_zero_data():
    setup = make_setup(nt=16)
    prob = make_problem(setup, VelocityField.zeros(setup["grid"]), None)
    res = solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-4))
    assert traj_norm(res.h) == 0.0
    assert res.terminal_norm == 0.0 and res.cg_iters == 0


def test_cg_small_run_contracts(rng):
    # single moderate penalty on the slow domain: support, monotonicity,
    # optimality, and the stored-objective invariant
    setup = make_setup(L=6.0, T=2.0, nt=32, wide_omega=True)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.05), None, picard_tol=1e-11)
    cfg = PenaltyConfig(epsilon=1e-3, cg_tol=1e-8, cg_max=300)
    res = solve_null_control_cg(prob, cfg)
    # control supported on omega bitwise
    omask = setup["omega"].face_indicator(g)
    for f in res.h:
        assert np.all(f.u[omask.u == 0.0] == 0.0)
        assert np.all(f.v[omask.v == 0.0] == 0.0)
    # objective non-increasing along the CG run
    curve = res.objective_curve
    assert all(curve[i + 1] <= curve[i] + 1e-12 * abs(curve[0]) for i in range(len(curve) - 1))
    # stored invariant: objective = |h|^2/2 + |y(T)|^2/(2 eps) on stored fields
    want = 0.5 * res.control_norm**2 + 0.5 / cfg.epsilon * res.terminal_norm**2
    assert abs(res.objective - want) <= 1e-10 * max(want, 1.0)
    # optimality: gradient norm below cg_tol * gradient at h = 0
    grad = penalized_gradient(prob, res.h, cfg)
    grad0 = penalized_gradient(prob, Trajectory.zeros(g), cfg)
    assert traj_norm(grad) <= cfg.cg_tol * traj_norm(grad0) * 1.05
    # steering beats the uncontrolled run
    assert res.terminal_norm < norm(control_to_terminal(prob, None))


def _slow_problem():
    setup = make_setup(L=6.0, T=2.0, nt=16, wide_omega=True)
    return make_problem(setup, eddy(setup["grid"], 0.05), None, picard_tol=1e-11)


def _relative_residual(prob, h, eps):
    """|gradient at h| / |gradient at 0| of the penalized objective at eps."""
    pen = PenaltyConfig(epsilon=eps)
    grad0 = penalized_gradient(prob, Trajectory.zeros(prob.grid), pen)
    return traj_norm(penalized_gradient(prob, h, pen)) / traj_norm(grad0)


@pytest.mark.parametrize("schedule", [None, [1.0, 0.3]], ids=["shipped", "1.0-0.3"])
def test_shifted_cg_true_residual_of_every_epsilon(monkeypatch, schedule):
    # the h of every epsilon, read from its exact re-solve (the last coupled
    # solves, in schedule order), solves its own penalized problem: a wrong
    # zeta recurrence or row update leaves the shifted rows off their systems
    raw = default_config_dict("nullcontrol")
    if schedule is not None:
        raw["penalty"].update(epsilon=schedule[-1], epsilon_schedule=schedule)
    cfg = config_from_dict(raw)
    prob = cfg.problem()
    real, controls = leader.solve_coupled_linear, []

    def spy(h, *args, **kwargs):
        controls.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(leader, "solve_coupled_linear", spy)
    res = solve_null_control_cg(prob, cfg.penalty)
    monkeypatch.undo()
    rows = res.history
    assert [r.epsilon for r in rows] == list(cfg.penalty.epsilon_schedule)
    assert res.cg_iters == rows[-1].cg_iters == max(r.cg_iters for r in rows)
    for row, h in zip(rows, controls[-len(rows):]):
        assert traj_norm(h) == pytest.approx(row.control_norm, rel=1e-14)
        assert _relative_residual(prob, h, row.epsilon) <= 10 * cfg.penalty.cg_tol, row


def test_cg_inner_solves_stop_at_the_inexact_tolerance(monkeypatch):
    # the coupled solve and adjoint pair of CG iteration k stop at eta_k =
    # min(cg_tol |b| / |r_k|, 1e-5) above picard_tol; the free response, b
    # and the exact re-solves of every epsilon stop at picard_tol
    prob = _slow_problem()
    cfg = PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-1, 1e-2), cg_tol=1e-8)
    solves = []
    for name in ("solve_coupled_linear", "solve_backward_adjoint"):
        def spy(*args, tol=0.0, _real=getattr(leader, name), **kwargs):
            sol = _real(*args, tol=tol, **kwargs)
            solves.append((tol, sol.residual))
            return sol
        monkeypatch.setattr(leader, name, spy)
    res = solve_null_control_cg(prob, cfg)
    monkeypatch.undo()
    picard_tol = prob.opts.picard_tol
    n = 2 * res.cg_iters
    exact, inner = solves[:2] + solves[2 + n:], solves[2:2 + n]
    assert len(exact) == 2 + len(cfg.epsilon_schedule) and res.cg_iters > 5
    for tol, residual in exact:
        assert tol == 0.0 and residual <= picard_tol
    # the first iteration's r is b, so its eta is cg_tol; r falls to below
    # 1e-3 |b|, where eta reaches its cap
    assert all(r <= cfg.cg_tol for _, r in inner[:2])
    assert all(picard_tol < r <= 1e-5 for _, r in inner)
    etas = [tol for tol, _ in inner]
    assert etas[::2] == etas[1::2]  # one eta for both solves of an iteration
    assert etas[0] == pytest.approx(cfg.cg_tol, rel=1e-12) and etas[-1] == 1e-5
    for tol, residual in inner:
        assert cfg.cg_tol * (1 - 1e-12) <= tol <= 1e-5 and residual <= tol


def test_shifted_cg_seed_row_is_the_one_epsilon_solve():
    # at the smallest epsilon the shift is 0, every factor is exactly 1, and
    # the schedule's last h is the one-epsilon solve bit for bit
    prob = _slow_problem()
    one = solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-3))
    sched = solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-3,
                                                      epsilon_schedule=(1.0, 0.1, 1e-3)))
    assert np.array_equal(sched.h.data, one.h.data)
    assert sched.cg_iters == one.cg_iters == sched.history[-1].cg_iters
    assert sched.objective_curve == one.objective_curve
    assert [r.cg_iters for r in sched.history] == sorted(r.cg_iters for r in sched.history)


def test_shifted_cg_huge_shift_stays_finite():
    # the 1e300 row converges at the first step, where its zeta is about
    # 1e-300; it stops there, before zeta underflows and its ratio is 0/0
    prob = _slow_problem()
    res = solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e300, 1e-2)))
    huge, seed = res.history
    for row in res.history:
        assert all(np.isfinite([row.terminal_norm, row.control_norm, row.objective])), row
    assert huge.cg_iters == 1 and huge.control_norm <= 1e-290
    assert huge.terminal_norm == pytest.approx(res.free_terminal_norm, rel=1e-12)
    one = solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-2))
    assert np.array_equal(res.h.data, one.h.data)


def test_cg_warm_start_from_the_solution():
    # the outer nonlinear loop restarts the CG from its last control: from a
    # converged h there is at most one step to take
    prob = _slow_problem()
    cfg = PenaltyConfig(epsilon=1e-2)
    cold = solve_null_control_cg(prob, cfg)
    warm = solve_null_control_cg(prob, cfg, h_start=cold.h)
    assert warm.cg_iters <= 1
    assert traj_norm(warm.h - cold.h) <= cfg.cg_tol * traj_norm(cold.h)


def test_cg_warm_start_from_a_perturbed_control(rng):
    prob = _slow_problem()
    g = prob.grid
    cfg = PenaltyConfig(epsilon=1e-2)
    cold = solve_null_control_cg(prob, cfg)
    start = cold.h + control_traj(g, rng, traj_norm(cold.h))
    assert traj_norm(start - cold.h) >= traj_norm(cold.h)
    warm = solve_null_control_cg(prob, cfg, h_start=start)
    assert _relative_residual(prob, warm.h, cfg.epsilon) <= 10 * cfg.cg_tol
    assert traj_norm(warm.h - cold.h) <= 100 * cfg.cg_tol * traj_norm(cold.h)


def test_cg_warm_start_refuses_a_schedule():
    # the shifted residuals are collinear only from h = 0
    prob = _slow_problem()
    with pytest.raises(ConfigurationError, match="warm start"):
        solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-1, 1e-2)),
                              h_start=Trajectory.zeros(prob.grid))


def test_cg_stagnation_error(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.1), None)
    with pytest.raises(NumericalError):
        solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-6, cg_tol=1e-12, cg_max=2))


def test_nonlinear_zero_data_one_outer():
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, VelocityField.zeros(g), None, convection_on=True)
    res = solve_null_control_nonlinear(prob, PenaltyConfig(epsilon=1e-4))
    assert traj_norm(res.h) == 0.0
    assert res.outer_iterations == 1


def test_nonlinear_warm_start_from_the_linear_control(monkeypatch):
    # the linear run inverts the operator of every outer iteration, so its
    # control starts the first CG, which then takes a fraction of a cold
    # start's iterations; both runs stop on the change of their own outer
    # iterates, and their controls agree within ten outer tolerances
    # (7.6e-7 relative measured on the shipped config, outer_tol 1e-6)
    cfg = config_from_dict(default_config_dict("nullcontrol-nonlinear"))
    prob = cfg.problem()
    outer = {"outer_tol": cfg.options["outer_tol"], "outer_max": cfg.options["outer_max"]}
    lin = solve_null_control_cg(prob, cfg.penalty)
    real, iters = leader.solve_null_control_cg, []

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        iters.append(res.cg_iters)
        return res

    monkeypatch.setattr(leader, "solve_null_control_cg", spy)
    cold = solve_null_control_nonlinear(prob, cfg.penalty, **outer)
    cold_first = iters[0]
    iters.clear()
    warm = solve_null_control_nonlinear(prob, cfg.penalty, **outer, h_start=lin.h)
    assert len(iters) == warm.outer_iterations >= 2
    assert 4 * iters[0] < cold_first
    assert traj_norm(warm.h - cold.h) <= 10 * outer["outer_tol"] * traj_norm(cold.h)


def _small_nonlinear_problem():
    setup = make_setup(nt=8)
    return make_problem(setup, eddy(setup["grid"], 0.05), None, convection_on=True)


def test_nonlinear_start_at_the_fixed_point_stops_at_once():
    # every outer iterate is tested against the control it started from, the
    # first too: from the loop's own converged control one outer iteration
    # moves it by less than outer_tol (an untested first iterate took two)
    prob, cfg = _small_nonlinear_problem(), PenaltyConfig(epsilon=1e-2)
    res = solve_null_control_nonlinear(prob, cfg)
    assert res.outer_iterations >= 2
    again = solve_null_control_nonlinear(prob, cfg, h_start=res.h)
    assert again.outer_iterations == 1
    assert traj_norm(again.h - res.h) <= 1e-6 * traj_norm(res.h)


def test_nonlinear_one_outer_iteration_can_succeed():
    # outer_max 1 stops once the first iterate moves less than outer_tol from
    # the linear control; an untested first iterate always raised
    prob, cfg = _small_nonlinear_problem(), PenaltyConfig(epsilon=1e-2)
    lin = solve_null_control_cg(prob, cfg)
    res = solve_null_control_nonlinear(prob, cfg, outer_tol=1e-4, outer_max=1, h_start=lin.h)
    assert res.outer_iterations == 1
    assert 0 < traj_norm(res.h - lin.h) <= 1e-4 * traj_norm(res.h)


def test_cg_does_not_read_convection_on():
    # the CG reaches only the linear coupled solve and the adjoint pair, so
    # the nonlinear pipeline runs its linear comparison on the configured options
    prob, cfg = _small_nonlinear_problem(), PenaltyConfig(epsilon=1e-2)
    off = dataclasses.replace(prob, opts=dataclasses.replace(prob.opts, convection_on=False))
    on, lin = solve_null_control_cg(prob, cfg), solve_null_control_cg(off, cfg)
    assert np.array_equal(on.h.data, lin.h.data) and on.cg_iters == lin.cg_iters
    assert on.objective_curve == lin.objective_curve


def test_nonlinear_small_data_guard():
    setup = make_setup(nt=16)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 0.5), None, convection_on=True,
                        small_data_delta=1e-3)
    with pytest.raises(ConfigurationError, match="small-data"):
        solve_null_control_nonlinear(prob, PenaltyConfig(epsilon=1e-4))


def test_delta_escalation_boundary_deterministic(rng):
    # escalate the initial-state size until the nonlinear pipeline fails;
    # the realized boundary must be identical across re-runs
    setup = make_setup(nt=16, T=0.5)
    g = setup["grid"]
    deltas = [1e-3, 50.0]

    def realized():
        last_ok = None
        for d in deltas:
            prob = make_problem(setup, eddy(g, d), None, convection_on=True)
            try:
                solve_null_control_nonlinear(
                    prob, PenaltyConfig(epsilon=1e-2, cg_tol=1e-6, cg_max=100)
                )
                last_ok = d
            except NumericalError:
                break
        return last_ok

    a = realized()
    b = realized()
    assert a == b == 1e-3
