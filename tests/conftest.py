import math

import numpy as np
import pytest

from stackstokes.grid import (
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    project_div_free,
    stream_function_velocity,
    traj_norm,
    trapezoid_weights,
)
from stackstokes.saddle import RobustParams, SaddleProblem
from stackstokes.stokes import SolverOptions, adjoint_coupling, convection


def closed_noise(grid, rng, amp=1.0):
    """Random velocity with zero normal-boundary faces."""
    u = rng.standard_normal((grid.nx + 1, grid.ny))
    v = rng.standard_normal((grid.nx, grid.ny + 1))
    return VelocityField(grid, u, v).apply_noslip() * amp


def control_traj(grid, rng, amp=1.0):
    """Random control trajectory; the inert level-0 slot is zero."""
    zero = VelocityField.zeros(grid)
    return Trajectory(
        grid, [zero.copy()] + [closed_noise(grid, rng, amp) for _ in range(grid.nt)]
    )


def state_traj(grid, rng, amp=1.0):
    return Trajectory(grid, [closed_noise(grid, rng, amp) for _ in range(grid.nt + 1)])


def eddy(grid, amp=0.1, lobes=1):
    """Exactly divergence-free eddy from a boundary-constant stream function."""
    xn = np.arange(grid.nx + 1) * grid.hx
    yn = np.arange(grid.ny + 1) * grid.hy
    sx = np.sin(lobes * np.pi * xn[:, None] / grid.Lx)
    sy = np.sin(lobes * np.pi * yn[None, :] / grid.Ly)
    if lobes == 1:
        psi = amp * sx * sy
    else:
        psi = amp * sx**2 * sy**2
    return stream_function_velocity(grid, psi)


def make_setup(nx=16, ny=16, nt=32, T=1.0, L=1.0, wide_omega=False):
    grid = GridSpec(nx=nx, ny=ny, Lx=L, Ly=L, nt=nt, T=T)
    om = (0.30, 0.95) if wide_omega else (0.35, 0.75)
    omega = Region(om[0] * L, om[1] * L, om[0] * L, om[1] * L)
    follower = Region(0.05 * L, 0.25 * L, 0.05 * L, 0.25 * L)
    obs = Region(0.45 * L, 0.95 * L, 0.45 * L, 0.95 * L)
    inner = Region(0.46 * L, 0.74 * L, 0.46 * L, 0.74 * L)
    chi = SmoothCutoff.for_grid(follower, grid)
    return {
        "grid": grid,
        "omega": omega,
        "follower": follower,
        "chi": chi,
        "obs": obs,
        "inner": inner,
    }


def make_problem(setup, y0, yd=None, ell=10.0, gamma=10.0, mu=1.0, **opts):
    return SaddleProblem(
        setup["grid"],
        setup["omega"],
        setup["chi"],
        setup["obs"],
        y0,
        yd,
        RobustParams(ell=ell, gamma=gamma, mu=mu),
        SolverOptions(**opts) if opts else SolverOptions(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# per-level face references of the coupled solvers
# ---------------------------------------------------------------------------

def psp(x, dt):
    """One step P S P x on the faces: a diffusion solve between two projections."""
    return project_div_free(diffusion_solve(project_div_free(x), dt))


def reference_coupled(h, y0, yd, coup, opts, omega=None, f1=None, f2=None, convective=False):
    """The coupled solve by its definition, level by level on the faces: the
    relaxed Picard loop over z, y <- forward(z), z <- backward(y).  With
    ``convective`` the forward steps subtract dt C(y) of the previous level
    and the backward steps dt adjoint_coupling(y[m], U) of the level above."""
    g = coup.grid
    dt = g.dt
    w = trapezoid_weights(g.nt)
    om = omega.face_indicator(g) if omega is not None else None
    y0p = y0.apply_noslip()
    if divergence(y0p).max_abs() > 1e-10:
        y0p = project_div_free(y0p)

    def forward(z):
        fields = [y0p]
        for n in range(g.nt):
            F = z[n + 1].mul_mask(coup.k_mask)
            if h is not None:
                F = F + (h[n + 1].mul_mask(om) if om is not None else h[n + 1])
            if f1 is not None:
                F = F + f1[n + 1]
            x = fields[-1] + dt * F
            if convective:
                x = x - dt * convection(fields[-1])
            fields.append(psp(x, dt))
        return Trajectory(g, fields)

    def backward(y):
        U = VelocityField.zeros(g)
        raw = [None] * (g.nt + 1)
        for m in range(g.nt, -1, -1):
            src = y[m] if yd is None else y[m] - yd[m]
            src = src.mul_mask(coup.obs_mask) * (coup.mu * w[m])
            if f2 is not None:
                src = src + f2[m]
            if convective and m < g.nt:
                U = U - dt * adjoint_coupling(y[m], U)
            U = psp(U + dt * src, dt)
            raw[m] = U
        return Trajectory(g, [raw[0]] + [raw[m] * (1.0 / w[m]) for m in range(1, g.nt + 1)])

    z = Trajectory.zeros(g)
    relax, prev = opts.relax, math.inf
    for it in range(1, opts.picard_max + 1):
        z_new = backward(forward(z))
        if relax < 1.0:
            z_new = z + relax * (z_new - z)
        res = traj_norm(z_new - z) / traj_norm(z_new)
        z = z_new
        if res <= opts.picard_tol:
            return forward(z), z, it
        if res >= prev and relax > 0.0625:
            relax *= 0.5
        prev = res
    raise AssertionError("reference coupled solve did not converge")


def reference_adjoint(phiT, g1, g2, link, coup, opts):
    """The adjoint pair by its definition, level by level on the faces: the
    relaxed Picard loop over theta, phi <- phi_sweep(theta), theta <-
    theta_sweep(phi), with the transposed convection around ``link``."""
    g = coup.grid
    dt = g.dt
    w = trapezoid_weights(g.nt)
    phiT = phiT.apply_noslip()

    def phi_sweep(theta):
        fields = [None] * (g.nt + 1)
        cur = phiT
        for m in range(g.nt, 0, -1):
            src = theta[m].mul_mask(coup.obs_mask) * (coup.mu * w[m])
            if g1 is not None:
                src = src + g1[m]
            base = cur
            if m < g.nt and link is not None:
                base = base - dt * adjoint_coupling(link[m], cur)
            cur = psp(base + dt * src, dt)
            fields[m] = cur
        fields[0] = fields[1]
        if link is not None:
            fields[0] = fields[1] - dt * adjoint_coupling(link[0], fields[1])
        return Trajectory(g, fields)

    def theta_sweep(phi):
        fields = [VelocityField.zeros(g)]
        for m in range(1, g.nt + 1):
            src = phi[m].mul_mask(coup.k_mask) * (1.0 / w[m])
            if g2 is not None:
                src = src + g2[m]
            fields.append(psp(fields[-1] + dt * src, dt))
        return Trajectory(g, fields)

    theta = Trajectory.zeros(g)
    relax, prev = opts.relax, math.inf
    for it in range(1, opts.picard_max + 1):
        theta_new = theta_sweep(phi_sweep(theta))
        if relax < 1.0:
            theta_new = theta + relax * (theta_new - theta)
        res = traj_norm(theta_new - theta) / traj_norm(theta_new)
        theta = theta_new
        if res <= opts.picard_tol:
            return phi_sweep(theta), theta, it
        if res >= prev and relax > 0.0625:
            relax *= 0.5
        prev = res
    raise AssertionError("reference adjoint pair did not converge")
