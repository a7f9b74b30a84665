import numpy as np
import pytest
from scipy.fft import dct, dst
from hypothesis import given, settings
from hypothesis import strategies as st

from stackstokes.errors import ConfigurationError
from stackstokes.grid import (
    _dct2_matrix,
    _dst1_matrix,
    _dst2_matrix,
    _poisson_neumann_direct,
    GridSpec,
    Region,
    ScalarField,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    gradient,
    inner,
    inner_cells,
    inner_space_time,
    laplacian,
    norm,
    project_div_free,
    stream_function_velocity,
    traj_norm,
)
from stackstokes import fieldio

from conftest import closed_noise, eddy, state_traj


def test_gridspec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(nx=4, ny=16, nt=32, T=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(nx=16, ny=16, nt=4, T=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(nx=16, ny=16, nt=32, T=-1.0)
    g = GridSpec(nx=16, ny=12, Lx=2.0, Ly=1.5, nt=32, T=0.5)
    assert g.hx == 2.0 / 16 and g.hy == 1.5 / 12 and g.dt == 0.5 / 32


def test_field_shape_mismatch():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    with pytest.raises(ConfigurationError):
        VelocityField(g, np.zeros((16, 16)), np.zeros((16, 17)))
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.zeros((17, 16)))


def test_divergence_zero_field():
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    assert divergence(VelocityField.zeros(g)).max_abs() == 0.0


def test_divergence_of_gradient_is_laplacian(rng):
    # operator identity div(grad(phi)) = 5-point Neumann Laplacian
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=1.3, nt=8, T=1.0)
    phi = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    got = divergence(gradient(phi)).values
    pe = np.pad(phi.values, 1, mode="edge")
    lap = (pe[2:, 1:-1] - 2 * phi.values + pe[:-2, 1:-1]) / g.hx**2 + (
        pe[1:-1, 2:] - 2 * phi.values + pe[1:-1, :-2]
    ) / g.hy**2
    assert np.abs(got - lap).max() < 1e-12


def test_divergence_stencil_oracle(rng):
    # independent index-by-index implementation
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    f = closed_noise(g, rng)
    got = divergence(f).values
    expect = np.zeros((g.nx, g.ny))
    for i in range(g.nx):
        for j in range(g.ny):
            expect[i, j] = (f.u[i + 1, j] - f.u[i, j]) / g.hx + (
                f.v[i, j + 1] - f.v[i, j]
            ) / g.hy
    assert np.abs(got - expect).max() < 1e-14


def test_projection_identity_on_div_free(rng):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    w = eddy(g, amp=0.7)
    p = project_div_free(w)
    assert norm(p - w) < 1e-12 * max(norm(w), 1.0)


def test_projection_kills_gradients(rng):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    phi = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    p = project_div_free(gradient(phi))
    assert norm(p) < 1e-10 * max(phi.max_abs(), 1.0)


def test_projection_recovers_div_free_part(rng):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    w = eddy(g, amp=0.5)
    phi = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    p = project_div_free(w + gradient(phi))
    assert norm(p - w) < 1e-10


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nx=st.sampled_from([8, 12, 16]),
       ny=st.sampled_from([8, 12, 16]))
def test_adjointness_and_projection_properties(seed, nx, ny):
    g = GridSpec(nx=nx, ny=ny, Lx=1.0, Ly=1.4, nt=8, T=1.0)
    r = np.random.default_rng(seed)
    w = closed_noise(g, r)
    w2 = closed_noise(g, r)
    phi = ScalarField(g, r.standard_normal((g.nx, g.ny)))
    # discrete integration by parts with zero boundary data
    lhs = inner(gradient(phi), w)
    rhs = -inner_cells(phi, divergence(w))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # projection: div-free output, idempotent, self-adjoint
    p = project_div_free(w)
    assert divergence(p).max_abs() < 1e-10
    assert norm(project_div_free(p) - p) < 1e-10
    assert abs(inner(p, w2) - inner(w, project_div_free(w2))) < 1e-10


def test_poisson_neumann_residual_contract(rng):
    g = GridSpec(nx=24, ny=16, Lx=1.0, Ly=0.8, nt=8, T=1.0)
    rhs = rng.standard_normal((g.nx, g.ny))
    sol = _poisson_neumann_direct(g, rhs)
    pe = np.pad(sol, 1, mode="edge")
    lap = (pe[2:, 1:-1] - 2 * sol + pe[:-2, 1:-1]) / g.hx**2 + (
        pe[1:-1, 2:] - 2 * sol + pe[1:-1, :-2]
    ) / g.hy**2
    b = rhs - rhs.mean()
    assert np.linalg.norm(lap - b) <= 1e-11 * np.linalg.norm(b)
    assert abs(sol.mean()) < 1e-13


@pytest.mark.parametrize("n", [7, 8, 15, 16, 23, 127, 128])
def test_transform_matrices_orthonormal_and_match_scipy(n):
    eye = np.eye(n)
    for mat, ref in (
        (_dst1_matrix(n), dst(eye, type=1, axis=0, norm="ortho")),
        (_dst2_matrix(n), dst(eye, type=2, axis=0, norm="ortho")),
        (_dct2_matrix(n), dct(eye, type=2, axis=0, norm="ortho")),
    ):
        assert np.abs(mat @ mat.T - eye).max() <= 1e-13
        assert np.abs(mat - ref).max() <= 1e-13


@pytest.mark.parametrize("nx, ny", [(16, 24), (128, 136)])
def test_diffusion_solve_inverts_implicit_euler(rng, nx, ny):
    # (I - dt*laplacian) applied to the solve gives back the interior faces
    g = GridSpec(nx=nx, ny=ny, Lx=1.0, Ly=1.3, nt=8, T=1.0)
    dt = 0.01
    f = closed_noise(g, rng)
    x = diffusion_solve(f, dt)
    assert x.boundary_is_closed()
    back = x - dt * laplacian(x)
    assert norm(back - f) <= 1e-12 * norm(f)


def test_inner_space_time_constant_fields():
    g = GridSpec(nx=16, ny=16, nt=16, T=1.0)
    ones = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    t = Trajectory.constant(ones)
    assert abs(inner_space_time(t, t) - 2.0) < 1e-12
    assert inner_space_time(t, Trajectory.zeros(g)) == 0.0


def test_inner_space_time_region_mask():
    g = GridSpec(nx=16, ny=16, nt=16, T=1.0)
    ones = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    t = Trajectory.constant(ones)
    mask = Region(0.5, 1.0, 0.5, 1.0)  # area 1/4, grid aligned
    assert abs(inner_space_time(t, t, mask) - 0.5) < 1e-12


def test_inner_space_time_grid_mismatch(rng):
    a = Trajectory.zeros(GridSpec(nx=16, ny=16, nt=8, T=1.0))
    b = Trajectory.zeros(GridSpec(nx=8, ny=8, nt=8, T=1.0))
    with pytest.raises(ConfigurationError):
        inner_space_time(a, b)


def test_region_validation_and_masks():
    with pytest.raises(ConfigurationError):
        Region(0.5, 0.2, 0.0, 1.0)
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    r = Region(0.25, 0.75, 0.25, 0.5)
    cm = r.cell_mask(g)
    assert cm.sum() * g.cell_area == pytest.approx(r.area(), abs=1e-14)
    fm = r.face_mask(g)
    # face-averaged mask integrates to the exact area per component
    wu = np.ones((g.nx + 1, g.ny)); wu[0] = wu[-1] = 0.5
    assert (fm.on_u * wu).sum() * g.cell_area == pytest.approx(r.area(), abs=1e-14)


def test_smooth_cutoff_shape():
    g = GridSpec(nx=32, ny=32, nt=8, T=1.0)
    region = Region(0.2, 0.8, 0.2, 0.8)
    chi = SmoothCutoff.for_grid(region, g)
    xs = np.linspace(0, 1, 301)
    vals = chi.evaluate(xs[:, None], xs[None, :])
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    outside = (xs[:, None] <= 0.2) | (xs[:, None] >= 0.8) | (xs[None, :] <= 0.2) | (
        xs[None, :] >= 0.8
    )
    assert np.abs(vals[outside]).max() == 0.0
    t = chi.taper
    core = ((xs[:, None] >= 0.2 + t) & (xs[:, None] <= 0.8 - t)
            & (xs[None, :] >= 0.2 + t) & (xs[None, :] <= 0.8 - t))
    assert np.abs(vals[core] - 1.0).max() < 1e-12
    # continuity across the ramp: small increments give small changes
    fine = np.linspace(0.15, 0.35, 2000)
    row = chi.evaluate(fine, np.full_like(fine, 0.5))
    assert np.abs(np.diff(row)).max() < 0.02


def test_smooth_cutoff_taper_validation():
    with pytest.raises(ConfigurationError):
        SmoothCutoff(Region(0.0, 0.2, 0.0, 0.2), taper=0.2)


def test_trajectory_validation(rng):
    g = GridSpec(nx=16, ny=16, nt=8, T=1.0)
    with pytest.raises(ConfigurationError):
        Trajectory(g, [VelocityField.zeros(g)] * 5)
    g2 = GridSpec(nx=8, ny=8, nt=8, T=1.0)
    with pytest.raises(ConfigurationError):
        Trajectory(g, [VelocityField.zeros(g)] * 8 + [VelocityField.zeros(g2)])


def test_stream_function_velocity_div_free(rng):
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.7, nt=8, T=1.0)
    psi = rng.standard_normal((g.nx + 1, g.ny + 1))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    w = stream_function_velocity(g, psi)
    assert divergence(w).max_abs() < 1e-12
    assert w.boundary_is_closed()


def test_binary_roundtrip(tmp_path, rng):
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    w = closed_noise(g, rng)
    fieldio.write_field(tmp_path / "w.sgf", w)
    back = fieldio.read_field(tmp_path / "w.sgf", g)
    assert np.array_equal(back.u, w.u) and np.array_equal(back.v, w.v)
    s = ScalarField(g, rng.standard_normal((g.nx, g.ny)))
    fieldio.write_field(tmp_path / "s.sgf", s)
    back = fieldio.read_field(tmp_path / "s.sgf", g)
    assert np.array_equal(back.values, s.values)
    traj = state_traj(g, rng, amp=0.5)
    fieldio.write_trajectory(tmp_path / "traj", "y", traj)
    got = fieldio.read_trajectory(tmp_path / "traj", "y", g)
    assert traj_norm(got - traj) == 0.0


def test_csv_export(tmp_path, rng):
    g = GridSpec(nx=8, ny=8, nt=8, T=1.0)
    w = closed_noise(g, rng)
    fieldio.velocity_to_csv(tmp_path / "w.csv", w)
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "component,x,y,value"
    assert len(lines) == 1 + (g.nx + 1) * g.ny + g.nx * (g.ny + 1)


def test_binary_corruption_detected(tmp_path, rng):
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    w = closed_noise(g, rng)
    fieldio.write_field(tmp_path / "w.sgf", w)
    blob = (tmp_path / "w.sgf").read_bytes()
    (tmp_path / "trunc.sgf").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ConfigurationError, match="payload"):
        fieldio.read_field(tmp_path / "trunc.sgf", g)
    (tmp_path / "junk.sgf").write_bytes(b"JUNK" + blob[4:])
    with pytest.raises(ConfigurationError, match="not a grid-field"):
        fieldio.read_field(tmp_path / "junk.sgf", g)
    with pytest.raises(ConfigurationError, match="expected"):
        fieldio.read_field(tmp_path / "w.sgf", GridSpec(nx=8, ny=8, nt=8, T=1.0))
