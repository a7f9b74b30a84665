"""Every space-time factor of stokes and every map composed from them against its transpose.

<A x, y> = <x, A^T y> with random x and y, to 1e-12 relative, on the five
grids of the V/face march test.  Stacks pair in the Euclidean product of
their packed faces or of their V coordinates; controls pair in the trapezoid space-time product, whose
weights the test writes out itself, so a transpose that weighs an end level
wrongly cannot agree with a forward map that weighs it the same way.
"""

import dataclasses

import numpy as np
import pytest

from stackstokes import leader
from stackstokes import stokes as st
from stackstokes.grid import (
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    project_div_free,
    v_coordinates,
    v_mask,
    v_velocities,
)
from stackstokes.saddle import RobustParams, SaddleProblem

from conftest import closed_noise, control_traj, state_traj

GRIDS = [
    pytest.param(16, 16, 1.0, 1.0, id="16-1.0"),
    pytest.param(16, 12, 1.0, 0.8, id="12-0.8"),
    pytest.param(24, 24, 1.0, 1.0, id="24x24"),
    pytest.param(40, 24, 1.7, 1.0, id="40x24"),
    pytest.param(64, 64, 1.0, 1.0, id="64x64"),
]


def _problem(nx, ny, Lx, Ly):
    """The regions of make_setup scaled to an nx x ny grid on [0,Lx]x[0,Ly], with zero data."""
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=16, T=1.0)

    def box(x0, x1, y0, y1):
        return Region(x0 * Lx, x1 * Lx, y0 * Ly, y1 * Ly)

    chi = SmoothCutoff.for_grid(box(0.05, 0.25, 0.05, 0.25), g)
    return SaddleProblem(g, box(0.35, 0.75, 0.35, 0.75), chi, box(0.45, 0.95, 0.45, 0.95),
                         VelocityField.zeros(g), None, RobustParams(10.0, 10.0, 1.0),
                         st.SolverOptions(picard_tol=1e-15, picard_max=100))


def _trapezoid(g, a: Trajectory, b: Trajectory) -> float:
    """dt sum_m w_m <a_m, b_m> with w = 1/2 at the two end levels, on the packed faces."""
    w = np.ones(g.nt + 1)
    w[0] = w[-1] = 0.5
    return g.dt * float(np.einsum("m,mi,mi->", w, a.data, b.data))


def _stack(g, rng):
    """Random closed noise on every level; level 0, the start of a march, divergence free."""
    x = state_traj(g, rng).data
    x[0] = project_div_free(VelocityField.from_packed(g, x[0].copy())).data
    return x


def _v_stack(g, rng):
    """Random V coordinates on every level."""
    return rng.standard_normal((g.nt + 1, (g.nx - 1) * (g.ny - 1)))


def _close(lhs: float, rhs: float, scale: float) -> bool:
    return abs(lhs - rhs) <= 1e-12 * scale


def _check(factors, x, y):
    """<A x, y> against <x, A^T y> for the composed map ``factors``."""
    ax = st._apply(factors, x.copy())
    aty = st._apply(st._T(factors), y.copy())
    lhs, rhs = float(np.vdot(ax, y)), float(np.vdot(x, aty))
    scale = np.linalg.norm(ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(aty)
    assert _close(lhs, rhs, scale), (lhs, rhs)


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_every_factor_is_transposed_exactly(rng, nx, ny, Lx, Ly):
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    link = state_traj(g, rng, 0.3)
    # diagonal weights: a face mask, per-level columns, dt, and the control maps
    _check((st._weight(prob._chi_mask.data, rng.random((g.nt + 1, 1)), g.dt),),
           _stack(g, rng), _stack(g, rng))
    _check(st._entry(g, prob._omega_mask) + (st._product(g, -1),), _stack(g, rng),
           _stack(g, rng))
    # the marches from level 0 and 1, plain and with the linearized convection,
    # in V coordinates and composed with Q^T and Q as maps of face stacks
    for lo in (0, 1):
        for terms in ((None, None), st._linked(link)):
            march = st._marched(g, lo, *terms)
            _check((march,), _v_stack(g, rng), _v_stack(g, rng))
            _check(st._on_faces(g, march), _stack(g, rng), _stack(g, rng))
    # Q and Q^T, as a factor and one level at a time
    _check((st._faces(g),), _v_stack(g, rng), _stack(g, rng))
    c = rng.standard_normal((3, (g.nx - 1) * (g.ny - 1)))
    x = closed_noise(g, rng).data
    qc = np.empty((3, g.n_faces))
    v_velocities(c, g, qc)
    qx = v_coordinates(x[None], g)
    for k in range(3):
        assert _close(float(qc[k] @ x), float(c[k] @ qx[0]),
                      np.linalg.norm(qc[k]) * np.linalg.norm(x))
    # the masks of the coupling as V operators, with per-level weights
    for op in (prob.coupling._k_v, prob.coupling._obs_v):
        _check((st._masked(op, rng.random((g.nt + 1, 1))),), _v_stack(g, rng),
               _v_stack(g, rng))
    # the linearization term and its transpose around one level of the link
    d, z = closed_noise(g, rng), closed_noise(g, rng)
    lin, adj = st.linearized_convection(link[3], d), st.adjoint_coupling(link[3], z)
    assert _close(float(lin.data @ z.data), float(d.data @ adj.data),
                  np.linalg.norm(lin.data) * np.linalg.norm(z.data))


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_composed_maps_are_transposed_exactly(rng, nx, ny, Lx, Ly):
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    link = state_traj(g, rng, 0.3)
    # both sweeps of the coupled cycle, whose forward march is plain or
    # linearized around a link, and the sweeps of its transposed cycle
    for terms in ((None, None), st._linked(link)):
        cycle = st._coupled_cycle(prob.coupling, st._marched(g, 1, *terms), st._marched(g, 0))
        for pre, march, post in cycle + st._transposed(cycle):
            _check(pre + (march,) + post, _v_stack(g, rng), _v_stack(g, rng))
        # the phi and theta sweeps of the transposed cycle, one after the other,
        # transpose the cycle a1 m1 b1 a2 m2 b2 started at its second march
        (a1, m1, b1), (a2, m2, b2) = cycle
        (pre_phi, m_phi, _), (pre_theta, m_theta, _) = st._transposed(cycle)
        theta, y = _v_stack(g, rng), _v_stack(g, rng)
        swept = st._apply(pre_phi + (m_phi,) + pre_theta + (m_theta,), theta.copy())
        rotated = st._apply((m2,) + b2 + a1 + (m1,) + b1 + a2, y.copy())
        lhs, rhs = float(np.vdot(swept, y)), float(np.vdot(theta, rotated))
        assert _close(lhs, rhs, np.linalg.norm(swept) * np.linalg.norm(y)
                      + np.linalg.norm(theta) * np.linalg.norm(rotated))


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_fixed_sweep_terminal_map_is_transposed_by_its_lift(rng, nx, ny, Lx, Ly):
    # the coupled solve and the adjoint pair stopped after the same k sweeps,
    # relaxed or not, are transposes: <Lambda_k h, w> = <h, Lambda_k* w>, so
    # the leader's CG runs on one fixed symmetric operator
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    for relax in (1.0, 0.5):
        fixed = dataclasses.replace(prob, opts=dataclasses.replace(prob.opts, relax=relax))
        for k in (1, 2, 3):
            h, w = control_traj(g, rng), closed_noise(g, rng)
            yT = leader.control_to_terminal(fixed, h, sweeps=k)
            lift = leader._terminal_dual_lift(fixed, w, k)
            lhs, rhs = float(yT.data @ w.data), _trapezoid(g, h, lift)
            scale = (np.linalg.norm(yT.data) * np.linalg.norm(w.data)
                     + np.sqrt(_trapezoid(g, h, h) * _trapezoid(g, lift, lift)))
            assert abs(lhs - rhs) <= 1e-14 * scale, (relax, k, lhs, rhs)


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_tracking_adjoint_transposes_the_state_map(rng, nx, ny, Lx, Ly):
    # X psi: the state of the march from zero driven by psi, plain and
    # linearized around a link; X* e: its transpose in the trapezoid product
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    link = state_traj(g, rng, 0.3)
    for with_link in (False, True):
        psi, e = control_traj(g, rng), state_traj(g, rng)
        terms = st._linked(link) if with_link else (None, None)
        x_psi = st._apply((st._weight(g.dt),) + st._on_faces(g, st._marched(g, 1, *terms)),
                          psi.data.copy())
        x_psi[0] = 0.0  # the start of the march from zero
        if not with_link:
            ref = st.solve_forward(VelocityField.zeros(g),
                                   st.ForcingAssembly(g, extra_source=psi))
            assert np.abs(x_psi - ref.data).max() <= 1e-13 * np.abs(ref.data).max()
        xt_e = st.state_adjoint(e, link if with_link else None)
        lhs, rhs = _trapezoid(g, Trajectory(g, x_psi), e), _trapezoid(g, psi, xt_e)
        assert _close(lhs, rhs, abs(lhs) + abs(rhs))


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_mask_operators_are_the_face_masks_in_v(rng, nx, ny, Lx, Ly):
    # Q^T diag(d) Q, restricted to the box of d's support, against Q^T of the
    # masked faces of Q c, and self-adjoint: for the two masks of the
    # coupling, a mask whose support reaches the walls on all four sides
    # (a box on the interior faces as large as they are) and an all-zero
    # mask (an empty box)
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    walls = np.zeros(g.n_faces)
    walls[::7] = rng.random(walls[::7].shape) + 1.0
    masks = (prob.coupling.k_mask.data, prob.coupling.obs_mask.data,
             Region(0.0, Lx, 0.0, 0.3 * Ly).face_mask(g).data, walls, np.zeros(g.n_faces))
    for d in masks:
        op = v_mask(d, g)
        c, y = _v_stack(g, rng), _v_stack(g, rng)
        faces = np.empty((g.nt + 1, g.n_faces))
        v_velocities(c, g, faces)
        ref = v_coordinates(d * faces, g)
        got, op_y = op(c.copy()), op(y.copy())
        assert np.abs(got - ref).max() <= 1e-13 * max(np.abs(ref).max(), np.abs(c).max())
        lhs, rhs = float(np.vdot(got, y)), float(np.vdot(c, op_y))
        assert _close(lhs, rhs, np.linalg.norm(got) * np.linalg.norm(y)
                      + np.linalg.norm(c) * np.linalg.norm(op_y))


@pytest.mark.parametrize("nx, ny, Lx, Ly", GRIDS)
def test_terminal_map_is_transposed_by_its_lift(rng, nx, ny, Lx, Ly):
    # <Lambda h, w> = <h, Lambda* w> for the terminal map of the coupled
    # solve and the omega-restricted lift of the adjoint pair, both converged
    prob = _problem(nx, ny, Lx, Ly)
    g = prob.grid
    h, w = control_traj(g, rng), closed_noise(g, rng)
    yT = leader.control_to_terminal(prob, h)
    lift = leader._terminal_dual_lift(prob, w)
    lhs, rhs = float(yT.data @ w.data), _trapezoid(g, h, lift)
    assert _close(lhs, rhs, abs(lhs) + abs(rhs))
