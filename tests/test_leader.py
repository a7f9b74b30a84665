import dataclasses
import math

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


def _spy_sweeps(monkeypatch):
    """(sweeps passed, sweeps run, residual) of every coupled solve and adjoint pair
    that the leader makes, in call order."""
    solves = []
    for name in ("solve_coupled_linear", "solve_backward_adjoint"):
        def spy(*args, sweeps=None, _real=getattr(leader, name), **kwargs):
            sol = _real(*args, sweeps=sweeps, **kwargs)
            solves.append((sweeps, sol.iterations, sol.residual))
            return sol
        monkeypatch.setattr(leader, name, spy)
    return solves


def test_cg_inner_solves_run_a_fixed_sweep_count(monkeypatch):
    # the coupled solve and adjoint pair of every CG iteration run exactly k
    # sweeps, k chosen once from the free response's contraction (about 1e-3
    # a sweep here, so k = 2); the free response, b and the exact re-solves
    # of every epsilon stop at picard_tol
    prob = _slow_problem()
    cfg = PenaltyConfig(epsilon=1e-2, epsilon_schedule=(1e-1, 1e-2), cg_tol=1e-8)
    solves = _spy_sweeps(monkeypatch)
    res = solve_null_control_cg(prob, cfg)
    monkeypatch.undo()
    n = 2 * res.cg_iters
    exact, inner = solves[:2] + solves[2 + n:], solves[2:2 + n]
    assert len(exact) == 2 + len(cfg.epsilon_schedule) and res.cg_iters > 5
    for sweeps, ran, residual in exact:
        assert sweeps is None and ran > 2 and residual <= prob.opts.picard_tol
    # both solves of every iteration; the last change of a 2-sweep solve,
    # 5e-5 to 1.1e-3 here, stays far above picard_tol
    assert {(sweeps, ran) for sweeps, ran, _ in inner} == {(2, 2)}
    assert all(1e3 * prob.opts.picard_tol < residual < 1e-2 for _, _, residual in inner)


def _nullcontrol_on(template, **robust):
    """A one-epsilon nullcontrol run on the geometry of ``template`` from an eddy start."""
    raw = default_config_dict(template)
    raw["experiment"], raw["options"] = "nullcontrol", {}
    raw["robust"].update(robust)
    raw["data"].update(y0_kind="eddy", y0_amplitude=0.05)
    raw["penalty"].update(epsilon=1e-2, epsilon_schedule=[])
    return config_from_dict(raw)


def test_cg_sweep_count_follows_the_contraction(monkeypatch):
    # the long-horizon carleman-check geometry contracts by about 0.07 a
    # sweep, so k = 2 would leave an error near 5e-3 in every product: the
    # rule takes k >= 4.  On the CG's h that k-sweep map still misses the
    # exact y(T) by about 5e-8 |y_free(T)|, above cg_tol, so the CG runs
    # again at 2k, and the seed's true residual holds its gate
    cfg = _nullcontrol_on("carleman-check")
    prob = cfg.problem()
    solves = _spy_sweeps(monkeypatch)
    res = solve_null_control_cg(prob, cfg.penalty)
    monkeypatch.undo()
    _, ran, residual = solves[0]
    rho = residual ** (1.0 / (ran - 1))
    assert 0.03 < rho < 0.2, rho
    fixed = [sweeps for sweeps, _, _ in solves if sweeps is not None]
    k = fixed[0]
    assert k >= 4 and rho**k <= 1e-5 < rho ** (k - 1)
    assert fixed == sorted(fixed) and set(fixed) == {k, 2 * k}
    assert fixed.count(2 * k) == 2 * res.cg_iters
    assert all(sweeps is None or ran == sweeps for sweeps, ran, _ in solves)
    assert _relative_residual(prob, res.h, cfg.penalty.epsilon) <= 10 * cfg.penalty.cg_tol


def test_cg_sweep_count_is_at_most_the_free_responses():
    # with picard_tol 1e-3 the free response on the carleman-check geometry
    # stops after 4 sweeps, short of the 5 that rho^k <= 1e-5 asks: the CG's
    # solves then run those 4, never tighter than the exact solves
    prob = _nullcontrol_on("carleman-check").problem()
    prob = dataclasses.replace(prob, opts=dataclasses.replace(prob.opts, picard_tol=1e-3))
    free = leader._coupled(prob, None, None, None)
    rho = free.residual ** (1.0 / (free.iterations - 1))
    assert free.iterations < math.log(1e-5) / math.log(rho)
    assert leader._free_response(prob, None, None)[2] == free.iterations == 4


def test_cg_products_run_at_the_relax_the_free_response_ended_at(monkeypatch):
    # at ell = 5e-3 on the gamma0-scan geometry the coupled sweep contracts
    # only once relax halves to 1/2.  The k-sweep products run at 1/2 too;
    # at relax 1 they do not contract, and the CG would converge to the
    # control of that operator (true residual 0.17)
    cfg = _nullcontrol_on("gamma0-scan", ell=5e-3)
    prob = cfg.problem()
    assert prob.opts.relax == 1.0
    free = leader._coupled(prob, None, None, None)
    assert free.relax == 0.5 and free.residual <= prob.opts.picard_tol
    runs, real = [], leader.control_to_terminal

    def spy(p, h, *args, sweeps=None, **kwargs):
        if sweeps is not None:
            runs.append((sweeps, p.opts.relax))
        return real(p, h, *args, sweeps=sweeps, **kwargs)

    monkeypatch.setattr(leader, "control_to_terminal", spy)
    res = solve_null_control_cg(prob, cfg.penalty)
    monkeypatch.undo()
    assert runs and {relax for _, relax in runs} == {0.5}
    assert _relative_residual(prob, res.h, cfg.penalty.epsilon) <= 10 * cfg.penalty.cg_tol


def test_cg_sweep_doubling_stops_at_picard_max(monkeypatch):
    # a k-sweep map that keeps missing the exact y(T) on the CG's h doubles k;
    # the first product past picard_max raises ConvergenceError
    from stackstokes.errors import ConvergenceError

    prob = _slow_problem()
    prob = dataclasses.replace(prob, opts=dataclasses.replace(prob.opts, picard_max=8))
    real, runs = leader.control_to_terminal, []

    def off(p, h, *args, sweeps=None, **kwargs):
        if sweeps is not None:
            runs.append(sweeps)
            return real(p, h, *args, sweeps=sweeps, **kwargs) * 1.01
        return real(p, h, *args, sweeps=sweeps, **kwargs)

    monkeypatch.setattr(leader, "control_to_terminal", off)
    with pytest.raises(ConvergenceError, match="asked for 16 sweeps, more than picard_max 8"):
        solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-2))
    assert runs == sorted(runs) and set(runs) == {2, 4, 8, 16} and runs.count(16) == 1


def test_cg_zero_free_response_takes_the_floor():
    # a free response done at its first sweep with residual 0 (zero data)
    # has no contraction to read: its k is the floor 2
    setup = make_setup(nt=16)
    prob = make_problem(setup, VelocityField.zeros(setup["grid"]), None)
    free = leader._coupled(prob, None, None, None)
    assert (free.iterations, free.residual) == (1, 0.0)
    assert leader._free_response(prob, None, None)[2] == 2


def test_cg_non_finite_product_raises_blowup(monkeypatch):
    # a fixed-k solve takes no norm per sweep; its one norm after the last
    # sweep raises BlowupError on a non-finite iterate, before the CG reads
    # a curvature from it
    from stackstokes.errors import BlowupError

    prob = _slow_problem()
    real = leader.control_to_terminal

    def poisoned(p, h, *args, sweeps=None, **kwargs):
        if sweeps is not None:
            h = h * np.nan
        return real(p, h, *args, sweeps=sweeps, **kwargs)

    monkeypatch.setattr(leader, "control_to_terminal", poisoned)
    with pytest.raises(BlowupError, match="at sweep 2"):
        solve_null_control_cg(prob, PenaltyConfig(epsilon=1e-2))


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
    # (7.1e-7 relative measured on the shipped config, outer_tol 1e-6).  On
    # the CG's fixed-sweep operator the warm start takes 2 CG iterations and
    # stops at outer iteration 1
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
    assert len(iters) == warm.outer_iterations >= 1
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
