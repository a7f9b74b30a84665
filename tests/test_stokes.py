import numpy as np
import pytest

from stackstokes.errors import BlowupError, CflError, ConfigurationError
from stackstokes.grid import (
    GridSpec,
    Trajectory,
    VelocityField,
    divergence,
    inner,
    inner_space_time,
    norm,
    project_div_free,
    traj_norm,
)
from stackstokes.stokes import (
    Coupling,
    ForcingAssembly,
    SolverOptions,
    adjoint_coupling,
    control_gradient,
    convection,
    linearized_convection,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_coupled_nonlinear,
    solve_forward,
)

from conftest import closed_noise, control_traj, eddy, make_setup

TIGHT = SolverOptions(picard_tol=1e-12, picard_max=400)


def coupling_for(setup, ell=10.0, gamma=10.0, mu=1.0):
    return Coupling.build(setup["grid"], setup["chi"], setup["obs"], ell, gamma, mu)


# ---------------------------------------------------------------------------
# convection and its linearization
# ---------------------------------------------------------------------------

def test_convection_uniform_field_vanishes():
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    f = VelocityField(g, np.full((g.nx + 1, g.ny), 2.0), np.full((g.nx, g.ny + 1), -1.5))
    assert convection(f).max_abs() == 0.0


def test_convection_zero():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    assert convection(VelocityField.zeros(g)).max_abs() == 0.0


def test_convection_stencil_oracle(rng):
    # independent loop implementation of (y . grad) y on the staggered grid
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y = closed_noise(g, rng)
    got = convection(y)
    hx, hy = g.hx, g.hy
    cu = np.zeros_like(y.u)
    for i in range(1, g.nx):
        for j in range(g.ny):
            dudx = (y.u[i + 1, j] - y.u[i - 1, j]) / (2 * hx)
            up = y.u[i, j + 1] if j + 1 < g.ny else y.u[i, j]
            dn = y.u[i, j - 1] if j - 1 >= 0 else y.u[i, j]
            dudy = (up - dn) / (2 * hy)
            vbar = 0.25 * (y.v[i - 1, j] + y.v[i - 1, j + 1] + y.v[i, j] + y.v[i, j + 1])
            cu[i, j] = y.u[i, j] * dudx + vbar * dudy
    cv = np.zeros_like(y.v)
    for i in range(g.nx):
        for j in range(1, g.ny):
            dvdy = (y.v[i, j + 1] - y.v[i, j - 1]) / (2 * hy)
            rt = y.v[i + 1, j] if i + 1 < g.nx else y.v[i, j]
            lf = y.v[i - 1, j] if i - 1 >= 0 else y.v[i, j]
            dvdx = (rt - lf) / (2 * hx)
            ubar = 0.25 * (y.u[i, j - 1] + y.u[i, j] + y.u[i + 1, j - 1] + y.u[i + 1, j])
            cv[i, j] = ubar * dvdx + y.v[i, j] * dvdy
    assert np.abs(got.u - cu).max() < 1e-14
    assert np.abs(got.v - cv).max() < 1e-14


def test_adjoint_coupling_zero():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    assert adjoint_coupling(y, VelocityField.zeros(g)).max_abs() == 0.0


def test_adjoint_coupling_uniform_background(rng):
    # for spatially uniform y the transposed-gradient term vanishes and the
    # output reduces to the transpose of -(y . grad); away from the wall
    # closure rows that equals the centered back-advection exactly
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y = VelocityField(g, np.full((g.nx + 1, g.ny), 0.8), np.full((g.nx, g.ny + 1), -0.6))
    z = closed_noise(g, rng)
    got = adjoint_coupling(y, z)
    hx, hy = g.hx, g.hy
    adv_u = np.zeros_like(z.u)
    adv_u[2:-2, 2:-2] = (
        0.8 * (z.u[3:-1, 2:-2] - z.u[1:-3, 2:-2]) / (2 * hx)
        - 0.6 * (z.u[2:-2, 3:-1] - z.u[2:-2, 1:-3]) / (2 * hy)
    )
    assert np.abs(got.u[3:-3, 3:-3] - (-adv_u)[3:-3, 3:-3]).max() < 1e-13


def test_adjoint_coupling_linearization_oracle(rng):
    # <dC(y)[d], w> must match <d, adjoint_coupling(y, w)>; the convection is
    # quadratic so central differences of the pairing are exact
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y = closed_noise(g, rng)
    for _ in range(3):
        d = closed_noise(g, rng)
        w = closed_noise(g, rng)
        eps = 1e-5
        fd = (inner(convection(y + eps * d), w) - inner(convection(y - eps * d), w)) / (
            2 * eps
        )
        an = inner(d, adjoint_coupling(y, w))
        an2 = inner(linearized_convection(y, d), w)
        assert abs(an - an2) < 1e-12 * max(abs(an), 1.0)
        assert abs(fd - an) < 1e-6 * max(abs(fd), 1.0)


# ---------------------------------------------------------------------------
# forward solver
# ---------------------------------------------------------------------------

def test_forward_zero_data():
    g = GridSpec(nx=16, ny=16, nt=16, T=1.0)
    traj = solve_forward(VelocityField.zeros(g), None, SolverOptions())
    assert traj_norm(traj) == 0.0


def test_forward_unforced_energy_decay():
    g = GridSpec(nx=16, ny=16, nt=16, T=0.25)
    y0 = eddy(g, amp=0.5, lobes=2)
    traj = solve_forward(y0, None, SolverOptions())
    norms = [norm(f) for f in traj]
    assert all(norms[k + 1] < norms[k] for k in range(g.nt))


def test_forward_trajectory_div_free(rng):
    g = GridSpec(nx=16, ny=16, nt=16, T=0.5)
    forcing = ForcingAssembly(g, disturbance=control_traj(g, rng, amp=0.3))
    traj = solve_forward(closed_noise(g, rng), forcing, SolverOptions())
    for f in traj:
        assert divergence(f).max_abs() < 1e-10


def test_forward_manufactured_convergence_first_step():
    # h-halving 16 -> 32 with dt ~ h^2; full three-grid study in acceptance
    from stackstokes.harness import _mms_fields

    u, v, fu, fv = _mms_fields()
    T = 0.25
    errs = []
    for nx in (16, 32):
        nt = 32 * (nx // 16) ** 2
        g = GridSpec(nx=nx, ny=nx, nt=nt, T=T)
        y0 = VelocityField.from_functions(g, lambda x, y: u(x, y, 0.0),
                                          lambda x, y: v(x, y, 0.0))
        forcing = ForcingAssembly(g, extra_source=Trajectory.from_function(g, fu, fv))
        traj = solve_forward(y0, forcing, SolverOptions())
        ex = VelocityField.from_functions(g, lambda x, y: u(x, y, T),
                                          lambda x, y: v(x, y, T))
        errs.append(norm(traj[g.nt] - ex))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_forward_cfl_guard():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y0 = eddy(g, amp=3.0)
    with pytest.raises(CflError):
        solve_forward(y0, None, SolverOptions(convection_on=True))


def test_forward_blowup_guard(rng):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    big = ForcingAssembly(g, disturbance=control_traj(g, rng, amp=500.0))
    with pytest.raises(BlowupError):
        solve_forward(VelocityField.zeros(g), big, SolverOptions(blowup_norm=0.5))


def test_forcing_assembly_masks(rng):
    setup = make_setup()
    g = setup["grid"]
    lead = control_traj(g, rng)
    fa = ForcingAssembly(g, leader=lead, omega=setup["omega"])
    f = fa.at_level(3)
    outside = setup["omega"].face_indicator(g)
    assert np.abs(f.u[outside.on_u == 0.0]).max() == 0.0
    with pytest.raises(ConfigurationError):
        ForcingAssembly(g, leader=lead)  # support region required


# ---------------------------------------------------------------------------
# backward adjoint pair
# ---------------------------------------------------------------------------

def test_adjoint_zero_data():
    setup = make_setup(nt=16)
    coup = coupling_for(setup)
    adj = solve_backward_adjoint(
        VelocityField.zeros(setup["grid"]), None, None, None, coup, TIGHT
    )
    assert traj_norm(adj.phi) == 0.0 and traj_norm(adj.theta) == 0.0


def test_adjoint_mu_zero_decouples(rng):
    # with mu = 0 phi solves the plain backward chain; compare against an
    # independently coded diffuse-then-project reversed integrator
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup, mu=0.0)
    phiT = project_div_free(closed_noise(g, rng))
    adj = solve_backward_adjoint(phiT, None, None, None, coup, TIGHT)

    from stackstokes.grid import diffusion_solve

    def step(f):
        return project_div_free(diffusion_solve(project_div_free(f), g.dt))

    expect = [None] * (g.nt + 1)
    expect[g.nt] = step(phiT)
    for m in range(g.nt - 1, 0, -1):
        expect[m] = step(expect[m + 1])
    expect[0] = expect[1]
    for m in range(g.nt + 1):
        assert norm(adj.phi[m] - expect[m]) < 1e-12


def test_adjoint_duality_identity(rng):
    # <y(T), phiT> - <y(0), phi(0)> = space-time pairing of the forcings with
    # the adjoint pair, exact to solver tolerance
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup)
    h = control_traj(g, rng, amp=0.5)
    y0 = project_div_free(closed_noise(g, rng))
    phiT = project_div_free(closed_noise(g, rng))
    sol = solve_coupled_linear(h, y0, None, coup, TIGHT, omega=setup["omega"])
    adj = solve_backward_adjoint(phiT, None, None, None, coup, TIGHT)
    lhs = inner(sol.y[g.nt], phiT) - inner(y0, adj.phi[0])
    rhs = inner_space_time(h, control_gradient(adj.phi, setup["omega"].face_indicator(g)))
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1e-12)


# ---------------------------------------------------------------------------
# coupled systems
# ---------------------------------------------------------------------------

def test_coupled_linear_zero_data():
    setup = make_setup(nt=16)
    sol = solve_coupled_linear(
        None, VelocityField.zeros(setup["grid"]), None, coupling_for(setup), TIGHT
    )
    assert traj_norm(sol.y) == 0.0 and traj_norm(sol.z) == 0.0
    assert sol.converged and sol.iterations == 1


def test_coupled_linear_mu_zero_is_plain_stokes(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    h = control_traj(g, rng)
    coup = coupling_for(setup, mu=0.0)
    sol = solve_coupled_linear(h, VelocityField.zeros(g), None, coup, TIGHT,
                               omega=setup["omega"])
    assert traj_norm(sol.z) == 0.0
    plain = solve_forward(
        VelocityField.zeros(g),
        ForcingAssembly(g, leader=h, omega=setup["omega"]),
        TIGHT,
    )
    assert traj_norm(sol.y - plain) < 1e-13


def test_coupled_linear_fixed_point_unique(rng):
    # warm start from a wrong guess must land on the same fixed point
    setup = make_setup(nt=16)
    g = setup["grid"]
    h = control_traj(g, rng, amp=0.2)
    yd = control_traj(g, rng, amp=0.2)
    coup = coupling_for(setup)
    a = solve_coupled_linear(h, VelocityField.zeros(g), yd, coup, TIGHT,
                             omega=setup["omega"])
    guess = control_traj(g, rng, amp=1.0)
    b = solve_coupled_linear(h, VelocityField.zeros(g), yd, coup, TIGHT,
                             omega=setup["omega"], z_init=guess)
    denom = max(traj_norm(a.z), 1e-300)
    assert traj_norm(a.z - b.z) / denom < 1e-8
    for f in a.y.fields + a.z.fields:
        assert divergence(f).max_abs() < 1e-10


def test_coupled_linear_needs_large_weights(rng):
    from stackstokes.errors import ConvergenceError

    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup, ell=0.02, gamma=0.02, mu=5.0)
    with pytest.raises(ConvergenceError, match="gamma and ell"):
        solve_coupled_linear(control_traj(g, rng), VelocityField.zeros(g), None,
                             coup, SolverOptions(picard_tol=1e-11, picard_max=40),
                             omega=setup["omega"])


def test_non_finite_iterates_fail_fast(rng):
    # a NaN datum must stop the sweep that first produces it, not report
    # convergence (adjoint pair) or spin to picard_max (coupled solve)
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup)
    nan_field = closed_noise(g, rng) * np.nan
    with pytest.raises(BlowupError) as err:
        solve_backward_adjoint(nan_field, None, None, None, coup, TIGHT)
    assert err.value.iterations == 1
    with pytest.raises(BlowupError) as err:
        solve_coupled_linear(control_traj(g, rng), nan_field, None, coup, TIGHT,
                             omega=setup["omega"])
    assert err.value.iterations == 1
    with pytest.raises(BlowupError) as err:
        solve_forward(nan_field, None, TIGHT)
    assert err.value.iterations == 1


def test_coupled_nonlinear_zero_data():
    setup = make_setup(nt=16)
    sol = solve_coupled_nonlinear(
        None, VelocityField.zeros(setup["grid"]), None, coupling_for(setup),
        SolverOptions(convection_on=True, picard_tol=1e-11),
    )
    assert traj_norm(sol.y) == 0.0 and traj_norm(sol.z) == 0.0


def test_coupled_nonlinear_quadratic_smallness(rng):
    # gap to the linear solution scales like the square of the data size
    setup = make_setup(nt=16, T=0.5)
    g = setup["grid"]
    coup = coupling_for(setup)
    opts = SolverOptions(convection_on=True, picard_tol=1e-13, picard_max=400)
    rel_gaps = []
    for amp in (1e-2, 1e-3):
        y0 = eddy(g, amp=amp)
        lin = solve_coupled_linear(None, y0, None, coup, TIGHT)
        non = solve_coupled_nonlinear(None, y0, None, coup, opts)
        rel_gaps.append(traj_norm(non.y - lin.y) / traj_norm(lin.y))
    ratio = rel_gaps[0] / rel_gaps[1]
    assert 5.0 <= ratio <= 20.0


def test_coupled_nonlinear_small_data_dissipates(rng):
    setup = make_setup(nt=16, T=0.5)
    g = setup["grid"]
    y0 = eddy(g, amp=1e-3)
    sol = solve_coupled_nonlinear(
        None, y0, None, coupling_for(setup),
        SolverOptions(convection_on=True, picard_tol=1e-11),
    )
    assert norm(sol.y[g.nt]) < norm(y0)


def test_coupled_nonlinear_small_data_guard():
    setup = make_setup(nt=16)
    y0 = eddy(setup["grid"], amp=0.5)
    with pytest.raises(ConfigurationError, match="small-data"):
        solve_coupled_nonlinear(
            None, y0, None, coupling_for(setup),
            SolverOptions(convection_on=True, small_data_delta=1e-3),
        )


def test_transposition_duality_random_pairs(rng):
    # <Lambda0 h, w> = <h, 1_omega * lift(w)> for the coupled linear map
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup)
    omask = setup["omega"].face_indicator(g)
    for _ in range(3):
        h = control_traj(g, rng)
        w = project_div_free(closed_noise(g, rng))
        sol = solve_coupled_linear(h, VelocityField.zeros(g), None, coup, TIGHT,
                                   omega=setup["omega"])
        adj = solve_backward_adjoint(w, None, None, None, coup, TIGHT)
        lhs = inner(sol.y[g.nt], w)
        rhs = inner_space_time(h, control_gradient(adj.phi, omask))
        assert abs(lhs - rhs) <= 1e-8 * (norm(sol.y[g.nt]) * norm(w) + abs(lhs))


def test_adjoint_f2_source_duality(rng):
    # sensitivity of the terminal state to the backward-equation source f2
    # is the theta component of the adjoint pair
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = coupling_for(setup)
    w = project_div_free(closed_noise(g, rng))
    f2 = Trajectory(g, [closed_noise(g, rng, 0.3) for _ in range(g.nt + 1)])
    base = solve_coupled_linear(None, VelocityField.zeros(g), None, coup, TIGHT)
    pert = solve_coupled_linear(None, VelocityField.zeros(g), None, coup, TIGHT,
                                f2=f2)
    lhs = inner(pert.y[g.nt] - base.y[g.nt], w)
    adj = solve_backward_adjoint(w, None, None, None, coup, TIGHT)
    rhs = g.dt * sum(inner(f2[m], adj.theta[m]) for m in range(g.nt + 1))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), norm(w) * 1e-6)


def test_forward_pressure_storage(rng):
    g = GridSpec(nx=16, ny=16, nt=16, T=0.5)
    forcing = ForcingAssembly(g, disturbance=control_traj(g, rng, amp=0.3))
    traj = solve_forward(closed_noise(g, rng), forcing,
                         SolverOptions(store_pressure=True))
    assert traj.pressures is not None and len(traj.pressures) == g.nt + 1
    for p in traj.pressures:
        assert abs(p.values.mean()) < 1e-13  # mean-zero gauge
    bare = solve_forward(closed_noise(g, rng), None, SolverOptions())
    assert bare.pressures is None
