"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance below is pinned, and each criterion enforces its
runtime budget.
"""

import math
import time

import numpy as np

from stackstokes.grid import (
    GridSpec,
    ScalarField,
    VelocityField,
    divergence,
    gradient,
    inner,
    inner_cells,
    inner_space_time,
    norm,
    project_div_free,
    traj_norm,
)
from stackstokes.harness import config_from_dict, default_config_dict, run_experiment
from stackstokes.leader import (
    PenaltyConfig,
    control_to_terminal,
    penalized_gradient,
)
from stackstokes.saddle import (
    robust_cost,
    robust_cost_grad,
    saddle_ascent_descent,
    saddle_from_coupled,
    verify_saddle,
)
from stackstokes.stokes import control_gradient, solve_backward_adjoint, solve_coupled_linear

from conftest import closed_noise, control_traj, eddy, make_problem, make_setup


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_operator_adjointness():
    t0 = time.time()
    ok = True
    detail = []
    for n in (16, 32):
        g = GridSpec(nx=n, ny=n, nt=8, T=1.0)
        r = np.random.default_rng(n)
        w = closed_noise(g, r)
        w2 = closed_noise(g, r)
        phi = ScalarField(g, r.standard_normal((g.nx, g.ny)))
        lhs = inner(gradient(phi), w)
        rhs = -inner_cells(phi, divergence(w))
        adj = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        ok &= adj <= 1e-12
        p = project_div_free(w)
        idem = norm(project_div_free(p) - p)
        selfadj = abs(inner(p, w2) - inner(w, project_div_free(w2)))
        ok &= idem <= 1e-10 and selfadj <= 1e-10
        detail.append(f"n={n}: adj={adj:.1e} idem={idem:.1e} selfadj={selfadj:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(1, "operator-adjointness", ok, elapsed, "; ".join(detail))


def test_criterion_02_forward_solver_order(tmp_path):
    t0 = time.time()
    raw = default_config_dict("convergence")
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    ratios = rec.metrics["ratios"]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _report(2, "forward-solver-order", ok, elapsed, f"ratios={ratios}")


def test_criterion_03_discrete_duality():
    t0 = time.time()
    setup = make_setup(nx=16, ny=16, nt=32)
    g = setup["grid"]
    prob = make_problem(setup, VelocityField.zeros(g), None, picard_tol=1e-12)
    omask = setup["omega"].face_indicator(g)
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        h = control_traj(g, rng)
        w = project_div_free(closed_noise(g, rng))
        sol = solve_coupled_linear(h, VelocityField.zeros(g), None, prob.coupling,
                                   prob.opts, omega=setup["omega"])
        adj = solve_backward_adjoint(w, None, None, None, prob.coupling, prob.opts)
        lhs = inner(sol.y[g.nt], w)
        rhs = inner_space_time(h, control_gradient(adj.phi, omask))
        rel = abs(lhs - rhs) / max(abs(lhs), norm(sol.y[g.nt]) * norm(w), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-8
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _report(3, "discrete-duality", ok, elapsed, f"worst rel mismatch {worst:.2e}")


def test_criterion_04_saddle_cross_validation():
    t0 = time.time()
    setup = make_setup(nx=16, ny=16, nt=32)
    g = setup["grid"]
    rng = np.random.default_rng(44)
    prob = make_problem(setup, eddy(g, 0.1), control_traj(g, rng, 0.05),
                        ell=10.0, gamma=10.0, mu=1.0, picard_tol=1e-12)
    h = control_traj(g, rng, 0.1)
    a = saddle_from_coupled(prob, h)
    b = saddle_ascent_descent(prob, h, rng=np.random.default_rng(0))
    num = traj_norm(a.psi_bar - b.psi_bar) + traj_norm(a.v_bar - b.v_bar)
    den = traj_norm(a.psi_bar) + traj_norm(a.v_bar)
    agree = num / den
    rep = verify_saddle(prob, a, h, n_probes=100, tol_scale=1e-8,
                        rng=np.random.default_rng(9))
    ok = agree <= 1e-5 and rep.violations == 0 and a.converged and b.converged
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(4, "saddle-cross-validation", ok, elapsed,
            f"agreement={agree:.2e} probes={rep.n_probes - rep.violations}/{rep.n_probes}")


def test_criterion_05_gradient_correctness():
    t0 = time.time()
    setup = make_setup(nx=16, ny=16, nt=32)
    g = setup["grid"]
    rng = np.random.default_rng(55)
    prob = make_problem(setup, eddy(g, 0.05), control_traj(g, rng, 0.05),
                        picard_tol=1e-12)
    h = control_traj(g, rng, 0.05)
    psi0 = control_traj(g, rng, 0.03)
    v0 = control_traj(g, rng, 0.03)
    g_psi, g_v = robust_cost_grad(prob, h, psi0, v0)
    worst_game = 0.0
    step = 1e-4
    for _ in range(10):
        d = control_traj(g, rng)
        fd = (robust_cost(prob, h, psi0 + step * d, v0)
              - robust_cost(prob, h, psi0 - step * d, v0)) / (2 * step)
        rel = abs(fd - inner_space_time(g_psi, d)) / max(abs(fd), 1e-300)
        worst_game = max(worst_game, rel)
        fd = (robust_cost(prob, h, psi0, v0 + step * d)
              - robust_cost(prob, h, psi0, v0 - step * d)) / (2 * step)
        rel = abs(fd - inner_space_time(g_v, d)) / max(abs(fd), 1e-300)
        worst_game = max(worst_game, rel)

    cfg = PenaltyConfig(epsilon=1e-3)
    omask = setup["omega"].face_indicator(g)
    grad = penalized_gradient(prob, h, cfg)

    def objective(hh):
        yT = control_to_terminal(prob, hh)
        return 0.5 * inner_space_time(hh, hh, omask) + 0.5 / cfg.epsilon * inner(yT, yT)

    worst_pen = 0.0
    step = 1e-5
    for _ in range(10):
        d = control_traj(g, rng)
        fd = (objective(h + step * d) - objective(h - step * d)) / (2 * step)
        rel = abs(fd - inner_space_time(grad, d)) / max(abs(fd), 1e-300)
        worst_pen = max(worst_pen, rel)
    ok = worst_game <= 1e-5 and worst_pen <= 1e-5
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    _report(5, "gradient-correctness", ok, elapsed,
            f"game fd={worst_game:.2e} penalized fd={worst_pen:.2e}")


def test_criterion_06_gamma_threshold_phenomenology(tmp_path):
    t0 = time.time()
    raw = default_config_dict("gamma0-scan")
    rec1 = run_experiment(config_from_dict(raw), out_root=tmp_path)
    rec2 = run_experiment(config_from_dict(raw), out_root=tmp_path)
    m1, m2 = rec1.metrics, rec2.metrics
    same = (m1["bracket_lower"], m1["bracket_upper"]) == (
        m2["bracket_lower"], m2["bracket_upper"])
    interior = m1["one_sided"] is None and m1["bracket_lower"] is not None
    ok = same and interior
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _report(6, "gamma-threshold-phenomenology", ok, elapsed,
            f"bracket=({m1['bracket_lower']:.4g}, {m1['bracket_upper']:.4g}) "
            f"replay identical={same}")


def test_criterion_07_null_control_sweep(tmp_path):
    t0 = time.time()
    raw = default_config_dict("nullcontrol")
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    m = rec.metrics
    red_at_1e4 = m["reduction_per_epsilon"][repr(1e-4)]
    ok = (
        m["terminal_strictly_decreasing"]
        and m["max_control_growth_ratio"] <= 1.5
        and 0.3 <= m["loglog_slope"] <= 0.7
        and m["weighted_norm_finite"]
        and red_at_1e4 <= 0.05
    )
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _report(7, "null-control-sweep", ok, elapsed,
            f"slope={m['loglog_slope']:.3f} "
            f"max growth={m['max_control_growth_ratio']:.3f} "
            f"reduction@1e-4={red_at_1e4:.4f}")


def test_criterion_08_nonlinear_small_data_pipeline(tmp_path):
    t0 = time.time()
    raw = default_config_dict("nullcontrol-nonlinear")
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    m = rec.metrics
    ok = m["outer_iterations"] <= 10 and m["nonlinear_over_linear"] <= 2.0
    elapsed = time.time() - t0
    ok &= elapsed < 900.0
    _report(8, "nonlinear-small-data", ok, elapsed,
            f"outer={m['outer_iterations']} "
            f"nonlinear/linear={m['nonlinear_over_linear']:.4f}")


def test_criterion_09_carleman_diagnostics(tmp_path):
    t0 = time.time()
    raw = default_config_dict("carleman-check")
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    m = rec.metrics
    dom = m["domination_log_ratios"]
    ok = (
        abs(m["alpha_ratio_large_lam"] - 1.0) <= 1e-9
        and abs(m["alpha_ratio_small_lam"] - 0.5) <= 1e-5
        and m["domination_nonincreasing"]
        and all(not math.isnan(v) for v in dom.values())
        and 0.8 <= m["laplacian_bound_stability"] <= 1.2
        and 0.5 <= m["observability_stability"] <= 2.0
    )
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _report(9, "carleman-diagnostics", ok, elapsed,
            f"laplacian stab={m['laplacian_bound_stability']:.3f} "
            f"observability stab={m['observability_stability']:.3f}")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    identical = True
    for exp, tweak in (("convergence", {}), ("saddle", {"n_probes": 10})):
        raw = default_config_dict(exp)
        raw["options"].update(tweak)
        cfg = config_from_dict(raw)
        a = run_experiment(cfg, out_root=tmp_path)
        b = run_experiment(cfg, out_root=tmp_path)
        identical &= a.metrics == b.metrics
        identical &= a.config_hash == b.config_hash
    elapsed = time.time() - t0
    _report(10, "determinism-replay", identical, elapsed,
            "metrics bit-identical across re-runs")
