import tracemalloc

import numpy as np
import pytest

from stackstokes import grid as grid_module
from stackstokes import stokes as stokes_module
from stackstokes.errors import BlowupError, CflError, ConfigurationError
from stackstokes.grid import (
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    face_views,
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
    frozen_sources,
    linearized_convection,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_coupled_nonlinear,
    solve_forward,
    solve_forward_terminal,
)

from conftest import (
    closed_noise,
    control_traj,
    eddy,
    make_setup,
    reference_adjoint,
    reference_coupled,
    state_traj,
)

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


def test_forward_manufactured_convergence_with_convection():
    # the order study with convection on: the manufactured solution at amplitude
    # 1, its forcing plus the hand-derived (u . grad) u; with s = sin(pi .),
    # c = cos(pi .) and k = 3 pi e^-t,  u = k s_x^3 s_y^2 c_y, v = -k s_x^2 c_x s_y^3
    from stackstokes.harness import _mms_fields

    u, v, fu, fv = _mms_fields(amp=1.0)
    pi = np.pi
    s, c = (lambda x: np.sin(pi * x)), (lambda x: np.cos(pi * x))
    k = lambda t: 3.0 * pi * np.exp(-t)
    u_x = lambda x, y, t: 3.0 * pi * k(t) * s(x) ** 2 * c(x) * s(y) ** 2 * c(y)
    u_y = lambda x, y, t: pi * k(t) * s(x) ** 3 * (2.0 * s(y) * c(y) ** 2 - s(y) ** 3)
    v_x = lambda x, y, t: -pi * k(t) * (2.0 * s(x) * c(x) ** 2 - s(x) ** 3) * s(y) ** 3
    v_y = lambda x, y, t: -3.0 * pi * k(t) * s(x) ** 2 * c(x) * s(y) ** 2 * c(y)
    gu = lambda x, y, t: fu(x, y, t) + u(x, y, t) * u_x(x, y, t) + v(x, y, t) * u_y(x, y, t)
    gv = lambda x, y, t: fv(x, y, t) + u(x, y, t) * v_x(x, y, t) + v(x, y, t) * v_y(x, y, t)
    T = 0.25
    errs = []
    for nx in (16, 32, 64):
        nt = 32 * (nx // 16) ** 2
        g = GridSpec(nx=nx, ny=nx, nt=nt, T=T)
        y0 = VelocityField.from_functions(g, lambda x, y: u(x, y, 0.0),
                                          lambda x, y: v(x, y, 0.0))
        forcing = ForcingAssembly(g, extra_source=Trajectory.from_function(g, gu, gv))
        traj = solve_forward(y0, forcing, SolverOptions(convection_on=True))
        ex = VelocityField.from_functions(g, lambda x, y: u(x, y, T),
                                          lambda x, y: v(x, y, T))
        errs.append(norm(traj[g.nt] - ex))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    # criterion 02's window
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_forward_cfl_guard():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    y0 = eddy(g, amp=3.0)
    with pytest.raises(CflError):
        solve_forward(y0, None, SolverOptions(convection_on=True))


def test_forward_blowup_guard(rng, monkeypatch):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    big = ForcingAssembly(g, disturbance=control_traj(g, rng, amp=500.0))
    monkeypatch.setattr(stokes_module, "_BLOWUP_NORM", 0.5)
    with pytest.raises(BlowupError):
        solve_forward(VelocityField.zeros(g), big)


def test_forcing_assembly_masks(rng):
    setup = make_setup()
    g = setup["grid"]
    lead = control_traj(g, rng)
    fa = ForcingAssembly(g, leader=lead, omega=setup["omega"])
    f_u, _ = face_views(fa.sources(), g)
    outside = setup["omega"].face_indicator(g)
    assert np.abs(f_u[3][outside.u == 0.0]).max() == 0.0
    with pytest.raises(ConfigurationError):
        ForcingAssembly(g, leader=lead)  # support region required


def test_coupled_solve_places_the_leader_on_omega(rng):
    # the coupled solves assemble their forward data as a ForcingAssembly: a
    # leader without its support omega is refused, as solve_forward refuses
    # it, and so are a leader and an f1 on another grid of the same shape
    s = make_setup()
    g, omega = s["grid"], s["omega"]
    coup = Coupling.build(g, s["chi"], s["obs"], 10.0, 10.0, 1.0)
    y0 = VelocityField.zeros(g)
    with pytest.raises(ConfigurationError, match="support region"):
        solve_coupled_linear(control_traj(g, rng), y0, None, coup)
    with pytest.raises(ConfigurationError, match="support region"):
        solve_coupled_nonlinear(control_traj(g, rng), y0, None, coup, SolverOptions())
    other = GridSpec(nx=g.nx, ny=g.ny, nt=g.nt, T=2.0 * g.T)
    with pytest.raises(ConfigurationError, match="leader trajectory on a different grid"):
        solve_coupled_linear(control_traj(other, rng), y0, None, coup, omega=omega)
    with pytest.raises(ConfigurationError, match="extra_source trajectory on a different grid"):
        solve_coupled_linear(None, y0, None, coup, omega=omega, f1=control_traj(other, rng))
    # placed, the leader acts through its indicator on omega only
    h = control_traj(g, rng)
    masked = h.mul_mask(omega.face_indicator(g))
    a = solve_coupled_linear(h, y0, None, coup, omega=omega)
    b = solve_coupled_linear(masked, y0, None, coup, omega=omega)
    assert np.array_equal(a.y.data, b.y.data) and np.array_equal(a.z.data, b.z.data)


def _mms_problem(g):
    """The manufactured initial state on g, and the forcing of its study as
    profile(t) * force: its forcing at t = 0 on the faces, and e^-t."""
    from stackstokes.harness import _mms_fields

    u, v, fu, fv = _mms_fields()
    y0 = VelocityField.from_functions(g, lambda x, y: u(x, y, 0.0), lambda x, y: v(x, y, 0.0))
    force = VelocityField.from_functions(g, lambda x, y: fu(x, y, 0.0),
                                         lambda x, y: fv(x, y, 0.0))
    return y0, force, lambda t: np.exp(-t)


def _trajectory_solve(y0, force, profile, opts=SolverOptions()):
    g = y0.grid
    forcing = Trajectory(g, profile(g.times())[:, None] * force.data)
    return solve_forward(y0, ForcingAssembly(g, extra_source=forcing), opts)


def _separable_deviation(f, x, y, t):
    """max |f(x, y, t) - e^-t f(x, y, 0)| over max |f(x, y, t)| at the points."""
    got = f(x, y, t)
    return np.abs(got - np.exp(-t) * f(x, y, 0.0)).max() / np.abs(got).max()


def test_mms_forcing_is_separable(rng):
    # the convergence study passes its forcing as e^-t F(x, y)
    from stackstokes.harness import _mms_fields

    _, _, fu, fv = _mms_fields()
    x, y, t = rng.random(1000), rng.random(1000), 2.0 * rng.random(1000)
    assert _separable_deviation(fu, x, y, t) <= 1e-14
    assert _separable_deviation(fv, x, y, t) <= 1e-14

    # the check sees a pressure term that decays as e^-2t
    def planted(x, y, t):
        px = -0.05 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        return fu(x, y, t) + (np.exp(-2.0 * t) - np.exp(-t)) * px

    assert _separable_deviation(planted, x, y, t) > 1e-14


# solve_forward marches the horizon as one block and the terminal solve one
# level per block, carrying the V coordinates from block to block; the
# terminal solve scales Q^T force, not force, so the two agree to rounding
@pytest.mark.parametrize("nx, ny, Ly, nt, convection_on", [
    (16, 16, 1.0, 32, False),
    (16, 12, 0.8, 20, False),
    (24, 24, 1.0, 16, False),
    (64, 48, 1.0, 12, False),
    # convection as the march's term
    (16, 16, 1.0, 20, True),
    # above the cut, a step on the parity classes
    (128, 96, 0.75, 8, False),
], ids=["v-16x16", "v-16x12", "v-24x24", "v-64x48", "convective-16x16", "v-128x96"])
def test_terminal_solve_is_the_last_level(nx, ny, Ly, nt, convection_on):
    g = GridSpec(nx=nx, ny=ny, Ly=Ly, nt=nt, T=0.25)
    y0, force, profile = _mms_problem(g)
    opts = SolverOptions(convection_on=convection_on)
    last = solve_forward_terminal(y0, force, profile, opts)
    ref = _trajectory_solve(y0, force, profile, opts)[nt]
    assert _rel_max(last, ref) <= 1e-13


def _blowup_of_both(g, force, profile, opts):
    """The message, step and |y| of the BlowupError of each forward entry point."""
    errors = []
    for solve in (_trajectory_solve, solve_forward_terminal):
        with pytest.raises(BlowupError) as info:
            solve(VelocityField.zeros(g), force, profile, opts)
        errors.append((str(info.value), info.value.iterations, info.value.residual))
    return errors


@pytest.mark.parametrize("nx", [16, 24, 64], ids=["v-16x16", "v-24x24", "v-64x64"])
def test_terminal_solve_blows_up_at_the_same_step(nx, monkeypatch):
    # |y| first passes 0.31 at level 4: inside solve_forward's one block, and
    # in the fourth one-level block of the terminal solve
    g = GridSpec(nx=nx, ny=nx, nt=16, T=0.25)
    _, force, profile = _mms_problem(g)
    monkeypatch.setattr(stokes_module, "_BLOWUP_NORM", 0.31)
    errors = _blowup_of_both(g, force, profile, SolverOptions())
    assert errors[0][:2] == errors[1][:2] and errors[0][1] == 4
    assert errors[1][2] == pytest.approx(errors[0][2], rel=1e-13)


@pytest.mark.parametrize("nx", [16, 64])
def test_terminal_solve_fails_on_nan_forcing_at_the_same_step(nx):
    # a NaN source at level 6 makes level 6 NaN: both entry points name it
    g = GridSpec(nx=nx, ny=nx, nt=16, T=0.25)
    _, force, profile = _mms_problem(g)

    def nan_profile(t):
        return np.where(t > 5.5 * g.dt, np.nan, profile(t))

    errors = _blowup_of_both(g, force, nan_profile, SolverOptions())
    assert errors[0][:2] == errors[1][:2]
    assert errors[0][1] == 6 and "|y| = nan" in errors[0][0]
    assert np.isnan(errors[0][2]) and np.isnan(errors[1][2])


def test_blowup_limit_bounds_the_peak_not_the_norm(monkeypatch):
    # the V marches bound max |y| by |y|_2 = |c|_2 and map a level back only
    # when that bound reaches the limit: a limit between the largest peak and
    # the largest 2-norm of the levels raises nothing
    g = GridSpec(nx=64, ny=64, nt=16, T=0.25)
    _, force, profile = _mms_problem(g)
    zero = VelocityField.zeros(g)
    states = _trajectory_solve(zero, force, profile).data
    limit = 1.01 * np.abs(states).max()
    assert limit < 1.0  # so that the limit is _BLOWUP_NORM itself (y0 = 0)
    assert np.sqrt((states**2).sum(axis=1)).max() > 10.0 * limit
    monkeypatch.setattr(stokes_module, "_BLOWUP_NORM", limit)
    y = _trajectory_solve(zero, force, profile)
    assert np.array_equal(y.data, states)
    last = solve_forward_terminal(zero, force, profile)
    assert _rel_max(last, y[g.nt]) <= 1e-13


def test_terminal_solve_cfl_guard():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    _, force, profile = _mms_problem(g)
    with pytest.raises(CflError):
        solve_forward_terminal(eddy(g, amp=3.0), force, profile,
                               SolverOptions(convection_on=True))


def test_terminal_solve_holds_no_trajectory():
    # the peak of traced allocations stays under a quarter of one trajectory,
    # while the trajectory solve holds the forcing and the states (two)
    g = GridSpec(nx=64, ny=64, nt=128, T=0.25)
    y0, force, profile = _mms_problem(g)
    bound = (g.nt + 1) * g.n_faces * 8 / 4

    def peak(solve):
        tracemalloc.start()
        try:
            solve(y0, force, profile)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(solve_forward_terminal) < bound
    assert peak(_trajectory_solve) > bound


def test_convergence_level_holds_only_its_march():
    # one level of the convergence study on a grid that steps on the parity
    # classes: its fields y0 and force, the grid's step tables, two rows of V
    # coordinates, b and the step's work arrays: 8.9 fields at the peak,
    # against 15.8 when the grid also kept the diffusion tables and their
    # whole factors, and the march allocated per level.  The first grid of
    # the size fills the cached sine matrices, which the measured grid shares.
    def level(T):
        g = GridSpec(nx=128, ny=128, nt=8, T=T)
        y0, force, profile = _mms_problem(g)
        return solve_forward_terminal(y0, force, profile)

    level(0.3)
    field = 2 * 128 * 129 * 8
    tracemalloc.start()
    try:
        level(0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * field, peak / field


def test_terminal_solve_maps_the_forcing_once(monkeypatch):
    # Q^T is taken of the forcing and of y0 once per solve, not once per
    # level, and Q only of the last level when no level nears the limit
    v_coordinates, v_velocities = grid_module.v_coordinates, grid_module.v_velocities
    calls, back = [], []

    def counting(packed, g):
        calls.append(packed.shape)
        return v_coordinates(packed, g)

    monkeypatch.setattr(grid_module, "v_coordinates", counting)
    monkeypatch.setattr(stokes_module, "v_coordinates", counting)
    monkeypatch.setattr(stokes_module, "v_velocities",
                        lambda c, g, out: back.append(c.shape) or v_velocities(c, g, out))
    counts = []
    for nt in (16, 64):
        g = GridSpec(nx=16, ny=16, nt=nt, T=0.25)
        y0, force, profile = _mms_problem(g)
        calls.clear()
        back.clear()
        solve_forward_terminal(y0, force, profile)
        counts.append(len(calls))
        assert len(back) == 1
    assert counts[0] == counts[1]


def test_terminal_solve_refuses_a_foreign_force_or_profile():
    g = GridSpec(nx=16, ny=16, nt=16, T=0.25)
    y0, force, profile = _mms_problem(g)
    other = GridSpec(nx=16, ny=12, nt=16, T=0.25)
    with pytest.raises(ConfigurationError, match="different grid"):
        solve_forward_terminal(y0, VelocityField.zeros(other), profile)
    for short in (lambda t: profile(t)[:-1], lambda t: 1.0):
        with pytest.raises(ConfigurationError, match="profile"):
            solve_forward_terminal(y0, force, short)


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
    assert sol.iterations == 1


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


def test_coupled_nonlinear_reproduced_by_its_frozen_sources(rng):
    # the march terms of the nonlinear sweeps, frozen at the solution, are the
    # sources f1, f2 of a linear solve that reproduces it
    setup = make_setup(nt=16, T=0.5)
    g = setup["grid"]
    coup = coupling_for(setup)
    h, yd, y0 = control_traj(g, rng, 0.05), state_traj(g, rng, 0.05), eddy(g, amp=0.1)
    opts = SolverOptions(convection_on=True, picard_tol=1e-13, picard_max=400)
    sol = solve_coupled_nonlinear(h, y0, yd, coup, opts, omega=setup["omega"])
    assert sol.residual <= 1e-13
    f1, f2 = frozen_sources(sol.y, sol.z)
    lin = solve_coupled_linear(h, y0, yd, coup, opts, setup["omega"], f1, f2)
    for new, old in ((lin.y, sol.y), (lin.z, sol.z)):
        assert (new - old).max_abs() <= 1e-12 * old.max_abs()


def test_convective_saddle_from_coupled_matches_ascent_descent():
    from stackstokes.harness import config_from_dict, default_config_dict, rng_stream
    from stackstokes.saddle import saddle_ascent_descent, saddle_from_coupled

    raw = default_config_dict("saddle")
    raw["solver"]["convection_on"] = True
    cfg = config_from_dict(raw)
    prob, h = cfg.problem(), cfg.leader_trajectory()
    res = saddle_from_coupled(prob, h)
    ref = saddle_ascent_descent(prob, h, rng=rng_stream(cfg.seed, "power-iteration"))
    assert res.converged
    gap = traj_norm(res.psi_bar - ref.psi_bar) + traj_norm(res.v_bar - ref.v_bar)
    assert gap <= 1e-9 * (traj_norm(res.psi_bar) + traj_norm(res.v_bar))


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


@pytest.mark.parametrize("masked", [False, True])
def test_control_gradient_matches_per_level_fields(rng, masked):
    setup = make_setup(nt=16)
    g = setup["grid"]
    phi = control_traj(g, rng) + control_traj(g, rng)
    mask = setup["omega"].face_indicator(g) if masked else None
    got = control_gradient(phi, mask)
    w = np.ones(g.nt + 1)
    w[0] = w[-1] = 0.5
    assert got[0].max_abs() == 0.0
    for m in range(1, g.nt + 1):
        ref = phi[m] * (1.0 / w[m])
        if mask is not None:
            ref = ref.mul_mask(mask)
        assert np.array_equal(got[m].u, ref.u) and np.array_equal(got[m].v, ref.v)
    assert not np.shares_memory(got.data, phi.data)


# ---------------------------------------------------------------------------
# marches in V coordinates against the face marches
# ---------------------------------------------------------------------------

def _v_setup(nx, ny, Lx, Ly):
    """An nx x ny grid on [0,Lx]x[0,Ly] with the regions of make_setup scaled to it."""
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=16, T=1.0)

    def box(x0, x1, y0, y1):
        return Region(x0 * Lx, x1 * Lx, y0 * Ly, y1 * Ly)

    omega = box(0.35, 0.75, 0.35, 0.75)
    chi = SmoothCutoff.for_grid(box(0.05, 0.25, 0.05, 0.25), g)
    return g, omega, Coupling.build(g, chi, box(0.45, 0.95, 0.45, 0.95), 10.0, 10.0, 1.0)


def _rel_max(a: Trajectory | VelocityField, b: Trajectory | VelocityField) -> float:
    return np.abs(a.data - b.data).max() / np.abs(b.data).max()


def _face_march(grid, levels, cur, stack, term=None):
    """The march of stokes by its definition,
    y <- P S P (y + G[m] - dt term(m, y)),  with y the previous level: one
    diffusion solve and two projections per level on the faces."""
    lo = min(levels)
    for m in levels:
        x = cur + VelocityField.from_packed(grid, stack[m - lo])
        if term is not None:
            x = x - grid.dt * term(m, cur)
        cur = project_div_free(diffusion_solve(project_div_free(x), grid.dt))
        stack[m - lo] = cur.data
    return cur


@pytest.mark.parametrize("nx, ny, Lx, Ly", [
    pytest.param(16, 16, 1.0, 1.0, id="16-1.0"),
    pytest.param(16, 12, 1.0, 0.8, id="12-0.8"),
    pytest.param(24, 24, 1.0, 1.0, id="24x24"),
    pytest.param(40, 24, 1.7, 1.0, id="40x24"),
    pytest.param(64, 64, 1.0, 1.0, id="64x64"),
])
def test_v_marches_match_the_face_marches(rng, nx, ny, Lx, Ly):
    # every march runs in V coordinates, convective ones included; the
    # references march on the faces, step by step, through diffusion_solve
    # and project_div_free: the forward solves by the definition of the
    # march, the coupled solves and adjoint pairs by their per-level Picard
    # loops, with masks and sources on the faces
    g, omega, coup = _v_setup(nx, ny, Lx, Ly)
    h = control_traj(g, rng, 0.5)
    y0 = project_div_free(closed_noise(g, rng, 0.2))
    yd = state_traj(g, rng, 0.1)
    forcing = ForcingAssembly(g, leader=h, disturbance=state_traj(g, rng, 0.3), omega=omega)
    phiT, g1, g2 = closed_noise(g, rng), state_traj(g, rng, 0.2), control_traj(g, rng, 0.2)
    # a twentieth of the data keeps the advective CFL number of the
    # convective solves under 1 on every grid (the V solves check it)
    small_h, small_y0 = h * 0.05, y0 * 0.05
    small_forcing = ForcingAssembly(g, leader=small_h, disturbance=state_traj(g, rng, 0.015),
                                    omega=omega)
    convective = SolverOptions(convection_on=True)

    y = solve_forward(y0, forcing)
    y_conv = solve_forward(small_y0, small_forcing, convective)
    for data, start, opts, traj in ((forcing, y0, SolverOptions(), y),
                                    (small_forcing, small_y0, convective, y_conv)):
        y_face = Trajectory(g, data.sources())
        y_face[0] = start
        term = (lambda m, prev: convection(prev)) if opts.convection_on else None
        _face_march(g, range(1, g.nt + 1), project_div_free(start), y_face.data[1:], term)
        assert _rel_max(traj, y_face) <= 1e-13

    got = (solve_coupled_linear(h, y0, yd, coup, TIGHT, omega=omega),
           solve_backward_adjoint(phiT, g1, g2, None, coup, TIGHT),
           solve_coupled_nonlinear(small_h, small_y0, yd, coup, TIGHT, omega=omega),
           solve_backward_adjoint(phiT, g1, g2, y_conv, coup, TIGHT))
    refs = (reference_coupled(h, y0, yd, coup, TIGHT, omega),
            reference_adjoint(phiT, g1, g2, None, coup, TIGHT),
            reference_coupled(small_h, small_y0, yd, coup, TIGHT, omega, convective=True),
            reference_adjoint(phiT, g1, g2, y_conv, coup, TIGHT))
    for a, (*trajs, iterations) in zip(got, refs):
        assert a.iterations == iterations
        pair = [getattr(a, k) for k in ("y", "z", "phi", "theta") if hasattr(a, k)]
        for traj, ref in zip(pair, trajs, strict=True):
            assert _rel_max(traj, ref) <= 1e-13


def test_v_marches_make_no_diffusion_solve(rng, monkeypatch):
    # every march runs in V coordinates on every grid, convective ones
    # included; a face step shows up as a call (stokes imports no
    # diffusion_solve, but would be counted if it did)
    calls = []

    def counting(rhs, dt):
        calls.append(rhs.grid)
        return diffusion_solve(rhs, dt)

    monkeypatch.setattr(grid_module, "diffusion_solve", counting)
    monkeypatch.setattr(stokes_module, "diffusion_solve", counting, raising=False)
    g, omega, coup = _v_setup(16, 16, 1.0, 1.0)
    # the step's tables are built on the first step, not with the problem
    fresh = GridSpec(nx=16, ny=16, nt=16, T=0.77)
    Coupling.build(fresh, SmoothCutoff.for_grid(omega, fresh), omega, 10.0, 10.0, 1.0)
    assert "_v_step" not in vars(fresh)
    solve_coupled_linear(control_traj(g, rng), closed_noise(g, rng), state_traj(g, rng),
                         coup, omega=omega)
    solve_backward_adjoint(closed_noise(g, rng), None, None, None, coup)
    big = GridSpec(nx=40, ny=24, nt=8, T=1.0)
    solve_forward(project_div_free(closed_noise(big, rng)), None)
    y0, force, profile = _mms_problem(big)
    solve_forward_terminal(y0, force, profile)
    # convective: forward solves on 40 x 24, and the nonlinear coupled solve
    # and the link adjoint on 16 x 16
    convective = SolverOptions(convection_on=True)
    conv = GridSpec(nx=40, ny=24, nt=16, T=0.25)
    y0, force, profile = _mms_problem(conv)
    solve_forward_terminal(y0, force, profile, convective)
    _trajectory_solve(y0, force, profile, convective)
    small = eddy(g, amp=0.01)
    link = solve_forward(small, None, convective)
    solve_coupled_nonlinear(control_traj(g, rng, 0.05), small, state_traj(g, rng), coup,
                            convective, omega=omega)
    solve_backward_adjoint(closed_noise(g, rng), None, None, link, coup)
    assert calls == []


def test_coupled_solves_map_the_stacks_once_per_solve(rng, monkeypatch):
    # the sweeps stay in V coordinates: Q^T of the sources and Q of the
    # results are taken once per solve, so the stack-wide maps of a solve do
    # not grow with its sweep count (one-level maps of the convective terms
    # aside, which no linear solve makes)
    calls = []

    def counting(fn):
        def wrapper(x, *args):
            calls.append(x.ndim)
            return fn(x, *args)
        return wrapper

    for name in ("v_coordinates", "v_velocities"):
        monkeypatch.setattr(stokes_module, name, counting(getattr(grid_module, name)))
    g, omega, coup = _v_setup(16, 16, 1.0, 1.0)
    h, y0, yd = control_traj(g, rng), closed_noise(g, rng), state_traj(g, rng)
    phiT, link = closed_noise(g, rng), state_traj(g, rng, 0.1)
    solves = (lambda opts: solve_coupled_linear(h, y0, yd, coup, opts, omega=omega),
              lambda opts: solve_backward_adjoint(phiT, None, None, None, coup, opts),
              lambda opts: solve_backward_adjoint(phiT, yd, h, link, coup, opts))
    for solve in solves:
        counts = {}
        for tol in (1e-4, 1e-12):
            calls.clear()
            sweeps = solve(SolverOptions(picard_tol=tol)).iterations
            counts[sweeps] = sum(ndim > 1 for ndim in calls)
        assert len(counts) == 2 and len(set(counts.values())) == 1, counts
