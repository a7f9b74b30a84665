"""The packed marches of stokes against per-level references.

The forward solve and the sweeps of the coupled and adjoint solvers march
packed stacks in V coordinates, with or without convection.  These tests
pin the marches to the plain per-level chain  y <- P S P (y - dt C(y) + dt F)
they replace, and check the transposed-convection (``link``) path against a
finite-difference linearization of the convective state map.
"""

import math

import numpy as np
import pytest

from stackstokes.errors import BlowupError
from stackstokes.grid import (
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    face_views,
    gradient,
    inner,
    norm,
    project_div_free,
    ScalarField,
    traj_norm,
    v_coordinates,
    v_velocities,
)
from stackstokes.stokes import (
    Coupling,
    ForcingAssembly,
    SolverOptions,
    _v_march,
    adjoint_coupling,
    convection,
    solve_backward_adjoint,
    solve_coupled_linear,
    solve_forward,
)

from conftest import (
    closed_noise,
    control_traj,
    make_setup,
    psp,
    reference_adjoint,
    reference_coupled,
    state_traj,
)


def _coupling(setup, ell=10.0, gamma=10.0, mu=1.0):
    return Coupling.build(setup["grid"], setup["chi"], setup["obs"], ell, gamma, mu)


def _rel(a: Trajectory, b: Trajectory) -> float:
    return traj_norm(a - b) / traj_norm(b)


def _nearly_div_free(g, rng, size=1e-11):
    """A closed divergence-free field plus a gradient whose divergence is about ``size``."""
    base = project_div_free(closed_noise(g, rng))
    grad = gradient(ScalarField(g, rng.standard_normal((g.nx, g.ny))))
    grad = grad * (size / divergence(grad).max_abs())
    return base + grad


# ---------------------------------------------------------------------------
# the kernel: the array march
# ---------------------------------------------------------------------------

def test_march_matches_per_level_chain(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    y0 = _nearly_div_free(g, rng)
    assert 5e-12 < divergence(y0).max_abs() < 5e-11
    forcing = state_traj(g, rng)

    ref = [y0]
    for m in range(1, g.nt + 1):
        ref.append(psp(ref[-1] + g.dt * forcing[m], g.dt))

    # projecting the sources first changes nothing: the march projects them itself
    out = forcing.data * g.dt
    for m in range(1, g.nt + 1):
        out[m] = project_div_free(VelocityField.from_packed(g, out[m])).data
    coeffs = v_coordinates(out[1:], g)
    last = _v_march(g, range(1, g.nt + 1), v_coordinates(y0.data, g), coeffs)
    v_velocities(coeffs, g, out[1:])
    u, v = face_views(out, g)
    for m in range(1, g.nt + 1):
        err = max(np.abs(u[m] - ref[m].u).max(), np.abs(v[m] - ref[m].v).max())
        assert err <= 1e-13 * ref[m].max_abs()
    # the march steps the rows of the stack in place and returns the last one
    assert np.shares_memory(last, coeffs) and np.array_equal(last, coeffs[-1])


# ---------------------------------------------------------------------------
# the forward solve against the per-level chain it replaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convection_on", [False, True])
def test_forward_matches_per_level_chain(rng, convection_on):
    setup = make_setup(nt=32)
    g = setup["grid"]
    om = setup["omega"].face_indicator(g)
    cm = setup["chi"].face_mask(g)
    lead, fol, dist, extra = (control_traj(g, rng, 0.3) for _ in range(4))
    forcing = ForcingAssembly(g, leader=lead, follower=fol, disturbance=dist,
                              extra_source=extra, omega=setup["omega"], chi=setup["chi"])
    y0 = project_div_free(closed_noise(g, rng, 0.1))
    got = solve_forward(y0, forcing, SolverOptions(convection_on=convection_on))

    ref = [y0]
    for m in range(1, g.nt + 1):
        y = ref[-1]
        x = y + g.dt * (lead[m].mul_mask(om) + fol[m].mul_mask(cm) + dist[m] + extra[m])
        if convection_on:
            x = x - g.dt * convection(y)
        ref.append(psp(x, g.dt))
    assert np.array_equal(got[0].u, y0.u) and np.array_equal(got[0].v, y0.v)
    for m in range(1, g.nt + 1):
        assert norm(got[m] - ref[m]) <= 1e-13 * norm(ref[m])


def test_forward_blowup_names_its_step(rng):
    # a burst of forcing at step k stops the solve at k, and so does a NaN
    # source at step 1, also with convection on (the CFL check lets NaN pass)
    setup = make_setup(nt=16)
    g = setup["grid"]
    y0 = project_div_free(closed_noise(g, rng, 0.1))
    nan_at_1 = Trajectory.zeros(g)
    nan_at_1[1] = closed_noise(g, rng) * np.nan
    cases = [(1, nan_at_1, False), (1, nan_at_1, True)]
    for k in (1, 5, g.nt):
        burst = Trajectory.zeros(g)
        burst[k] = closed_noise(g, rng, 1e9)
        cases.append((k, burst, False))
    for k, source, convection_on in cases:
        with pytest.raises(BlowupError) as err:
            solve_forward(y0, ForcingAssembly(g, extra_source=source),
                          SolverOptions(convection_on=convection_on))
        assert err.value.iterations == k


# ---------------------------------------------------------------------------
# the solvers against the per-level Picard loops they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("relax", [1.0, 0.6])
def test_coupled_linear_matches_per_level_reference(rng, relax):
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = _coupling(setup, ell=3.0, gamma=3.0)
    opts = SolverOptions(picard_tol=1e-12, relax=relax)
    args = dict(
        h=control_traj(g, rng, 0.3),
        y0=_nearly_div_free(g, rng),
        yd=state_traj(g, rng, 0.2),
        coupling=coup,
        opts=opts,
        omega=setup["omega"],
        f1=control_traj(g, rng, 0.1),
        f2=state_traj(g, rng, 0.1),
    )
    sol = solve_coupled_linear(**args)
    y_ref, z_ref, it_ref = reference_coupled(*args.values())
    assert sol.iterations == it_ref
    assert _rel(sol.y, y_ref) <= 1e-12
    assert _rel(sol.z, z_ref) <= 1e-12
    for f in [*sol.y, *sol.z]:
        assert divergence(f).max_abs() < 1e-10
    # level 0 is the initial state as given, not its projection
    assert np.array_equal(sol.y[0].u, args["y0"].apply_noslip().u)


@pytest.mark.parametrize("relax,with_link", [(1.0, False), (0.6, True)])
def test_backward_adjoint_matches_per_level_reference(rng, relax, with_link):
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = _coupling(setup, ell=3.0, gamma=3.0)
    opts = SolverOptions(picard_tol=1e-12, relax=relax)
    args = (
        _nearly_div_free(g, rng),
        state_traj(g, rng, 0.2),
        control_traj(g, rng, 0.2),
        state_traj(g, rng, 0.3) if with_link else None,
        coup,
        opts,
    )
    adj = solve_backward_adjoint(*args)
    phi_ref, theta_ref, it_ref = reference_adjoint(*args)
    assert adj.iterations == it_ref
    assert _rel(adj.phi, phi_ref) <= 1e-12
    assert _rel(adj.theta, theta_ref) <= 1e-12


@pytest.mark.parametrize("with_link", [False, True])
def test_decoupled_adjoint_is_one_backward_march(rng, with_link):
    # on an explicit zero coupling the Picard loop stops after one sweep, theta
    # stays 0, and phi is the backward march of g1 alone: the per-level chain
    # up to round-off
    setup = make_setup(nt=16)
    g = setup["grid"]
    dt = g.dt
    phiT, g1 = _nearly_div_free(g, rng), state_traj(g, rng, 0.2)
    link = state_traj(g, rng, 0.3) if with_link else None
    zero = Coupling(g, VelocityField.zeros(g), setup["obs"].face_mask(g), 0.0)
    adj = solve_backward_adjoint(phiT, g1, None, link, zero)
    assert adj.iterations == 1
    assert not adj.theta.data.any()
    fields = [None] * (g.nt + 1)
    cur = phiT.apply_noslip()
    for m in range(g.nt, 0, -1):
        base = cur if m == g.nt or link is None else cur - dt * adjoint_coupling(link[m], cur)
        cur = fields[m] = psp(base + dt * g1[m], dt)
    fields[0] = fields[1] if link is None else fields[1] - dt * adjoint_coupling(link[0], fields[1])
    assert _rel(adj.phi, Trajectory(g, fields)) <= 1e-12


def test_nan_source_fails_at_first_sweep(rng):
    setup = make_setup(nt=16)
    g = setup["grid"]
    coup = _coupling(setup)
    bad = control_traj(g, rng)
    bad[5] = bad[5] * np.nan
    with pytest.raises(BlowupError) as err:
        solve_coupled_linear(None, VelocityField.zeros(g), None, coup, f1=bad)
    assert err.value.iterations == 1
    with pytest.raises(BlowupError) as err:
        solve_backward_adjoint(closed_noise(g, rng), None, bad, None, coup)
    assert err.value.iterations == 1


# ---------------------------------------------------------------------------
# the transposed convection (link) against the convective state map
# ---------------------------------------------------------------------------

def test_link_adjoint_matches_convective_linearization(rng):
    # J(y0, F) = <phiT, y(T)> for the convective forward solve.  Its
    # derivative in (dy0, dF) is  <phi[0], dy0> + dt sum_m <phi[m], dF[m]>
    # with phi the backward adjoint linked to the forward trajectory.  On an
    # 8x8 box with unit speeds convection moves y(T) by about 3e-2 and the
    # link terms move both pairings by more than 1e-3, so a wrong sign in
    # either link term fails the check (central differences agree to ~1e-11).
    setup = make_setup(nx=12, ny=12, nt=12, T=2.0, L=8.0)
    g = setup["grid"]
    opts = SolverOptions(convection_on=True)
    decoupled = Coupling.build(g, setup["chi"], setup["obs"], math.inf, math.inf, 0.0)

    def smooth():
        v = project_div_free(diffusion_solve(closed_noise(g, rng), 0.64))
        return v * (1.0 / v.max_abs())

    def smooth_traj(amp):
        return Trajectory(g, [VelocityField.zeros(g)] + [smooth() * amp for _ in range(g.nt)])

    y0, phiT, dy0 = smooth(), smooth(), smooth()
    forcing, dF = smooth_traj(0.5), smooth_traj(1.0)

    def terminal(y_init, f, options=opts):
        return solve_forward(y_init, ForcingAssembly(g, extra_source=f), options)[g.nt]

    def pairings(link):
        phi = solve_backward_adjoint(phiT, None, None, link, decoupled).phi
        p_y0 = inner(phi[0], dy0)
        p_F = g.dt * sum(inner(phi[m], dF[m]) for m in range(1, g.nt + 1))
        return p_y0, p_F

    ybar = solve_forward(y0, ForcingAssembly(g, extra_source=forcing), opts)
    stokes_T = terminal(y0, forcing, SolverOptions())
    assert norm(ybar[g.nt] - stokes_T) >= 1e-3 * norm(stokes_T)
    linked = pairings(ybar)
    plain = pairings(None)
    for a, b in zip(linked, plain):
        assert abs(a - b) >= 1e-3 * abs(a)

    step = 1e-4
    fd_y0 = (inner(phiT, terminal(y0 + step * dy0, forcing))
             - inner(phiT, terminal(y0 - step * dy0, forcing))) / (2 * step)
    fd_F = (inner(phiT, terminal(y0, forcing + step * dF))
            - inner(phiT, terminal(y0, forcing - step * dF))) / (2 * step)
    assert abs(fd_y0 - linked[0]) <= 1e-8 * abs(fd_y0)
    assert abs(fd_F - linked[1]) <= 1e-8 * abs(fd_F)
