import numpy as np
import pytest
from scipy.fft import dst
from hypothesis import given, settings
from hypothesis import strategies as st

from stackstokes import grid as grid_module
from stackstokes.errors import ConfigurationError
from stackstokes.grid import (
    _dst1_matrix,
    _dst2_matrix,
    GridSpec,
    Region,
    ScalarField,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    diffusion_solve,
    divergence,
    face_views,
    gradient,
    inner,
    inner_cells,
    inner_space_time,
    laplacian,
    norm,
    project_div_free,
    project_div_free_with_potential,
    stream_function_velocity,
    traj_norm,
    v_coordinates,
    v_step,
    v_velocities,
    v_work,
)
from stackstokes import fieldio

from conftest import closed_noise, eddy, state_traj


def _normal_faces_zero(f: VelocityField) -> bool:
    return not (f.u[0].any() or f.u[-1].any() or f.v[:, 0].any() or f.v[:, -1].any())


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



def test_projection_potential_gauge(rng):
    # vel = out + grad(phi) on the interior faces, with phi in the mean-zero gauge
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.8, nt=8, T=1.0)
    vel = closed_noise(g, rng) + gradient(ScalarField(g, rng.standard_normal((g.nx, g.ny))))
    out, phi = project_div_free_with_potential(vel)
    assert divergence(out).max_abs() < 1e-10
    back = out + gradient(phi)
    scale = vel.max_abs()
    assert np.abs(back.u[1:-1, :] - vel.u[1:-1, :]).max() <= 1e-12 * scale
    assert np.abs(back.v[:, 1:-1] - vel.v[:, 1:-1]).max() <= 1e-12 * scale
    assert abs(phi.values.mean()) < 1e-13

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


@pytest.mark.parametrize("nx, ny, Ly", [(12, 9, 1.0), (16, 12, 0.8)])
def test_projection_is_the_dense_leray_projection(rng, nx, ny, Ly):
    # P = I - D^T (D D^T)^+ D on the interior faces, D the dense MAC
    # divergence; properties alone (idempotent, self-adjoint, div-free) would
    # also hold for the projection onto a subspace of V
    g = GridSpec(nx=nx, ny=ny, Lx=1.0, Ly=Ly, nt=8, T=1.0)
    interior = np.flatnonzero(VelocityField.from_packed(g, np.ones(g.n_faces)).apply_noslip().data)
    d = np.stack([divergence(VelocityField.from_packed(g, e)).values.ravel()
                  for e in np.eye(g.n_faces)[interior]], axis=1)
    p_ref = np.eye(len(interior)) - d.T @ np.linalg.pinv(d @ d.T, rcond=1e-10) @ d
    x = rng.standard_normal((4, g.n_faces))
    for row in x:
        got = project_div_free(VelocityField.from_packed(g, row)).data
        want = np.zeros(g.n_faces)
        want[interior] = p_ref @ row[interior]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [7, 8, 15, 16, 23, 127, 128])
def test_transform_matrices_orthonormal_and_match_scipy(n):
    eye = np.eye(n)
    for mat, ref in (
        (_dst1_matrix(n), dst(eye, type=1, axis=0, norm="ortho")),
        (_dst2_matrix(n), dst(eye, type=2, axis=0, norm="ortho")),
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
    assert _normal_faces_zero(x)
    back = x - dt * laplacian(x)
    assert norm(back - f) <= 1e-12 * norm(f)


def _v_basis(g):
    """Q as rows: the velocities of the nv unit V coordinates."""
    nv = (g.nx - 1) * (g.ny - 1)
    q = np.empty((nv, g.n_faces))
    v_velocities(np.eye(nv), g, q)
    return q


V_GRIDS = [(16, 16, 1.0, 1.0), (16, 12, 1.0, 0.8)]


@pytest.mark.parametrize("nx, ny, Lx, Ly", V_GRIDS)
def test_v_basis_is_orthonormal_div_free_and_closed(nx, ny, Lx, Ly):
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=8, T=1.0)
    q = _v_basis(g)
    assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-13
    for row in q:
        f = VelocityField.from_packed(g, row)
        assert _normal_faces_zero(f)
        assert divergence(f).max_abs() <= 1e-13


@pytest.mark.parametrize("nx, ny, Lx, Ly", V_GRIDS)
def test_v_coordinates_are_the_transpose_and_absorb_the_projection(rng, nx, ny, Lx, Ly):
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=8, T=1.0)
    q = _v_basis(g)
    x = np.stack([closed_noise(g, rng).data for _ in range(3)])
    c = v_coordinates(x, g)
    assert np.abs(c - x @ q.T).max() <= 1e-13 * np.abs(c).max()
    # Q Q^T is the Leray projection, whose range V the coordinates span
    back = np.empty_like(x)
    v_velocities(c, g, back)
    for row, got in zip(x, back):
        ref = project_div_free(VelocityField.from_packed(g, row)).data
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# the grids of V_GRIDS, a square and an oblong one with Lx != Ly, and one with
# a (64-1)^2 = 3969-dimensional V; then grids whose step runs on the parity
# classes: a square one, an odd-sized one (unequal classes of the DST-II
# modes) and an oblong one with Lx != Ly (unequal classes of the DST-I modes)
STEP_GRIDS = V_GRIDS + [(24, 24, 1.0, 1.0), (40, 24, 1.7, 1.0), (64, 64, 1.0, 1.0),
                        (128, 128, 1.0, 1.0), (97, 105, 1.0, 1.0), (130, 96, 1.7, 1.0)]


@pytest.mark.parametrize("nx, ny, Lx, Ly", STEP_GRIDS)
def test_v_step_is_the_projected_diffusion_solve(rng, nx, ny, Lx, Ly):
    # H c = Q^T S Q c, with Q, S and Q^T each taken on its own code path; the
    # step takes and gives the coordinates scaled by s = lambda^-1/2, with
    # lambda the eigenvalues of the 5-point Dirichlet Laplacian of the
    # interior nodes
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=8, T=0.3)
    lx = (2 - 2 * np.cos(np.pi * np.arange(1, nx) / nx)) / g.hx**2
    ly = (2 - 2 * np.cos(np.pi * np.arange(1, ny) / ny)) / g.hy**2
    s = 1 / np.sqrt(lx[:, None] + ly[None, :])
    c = rng.standard_normal((nx - 1, ny - 1))
    faces = np.empty(g.n_faces)
    v_velocities(c.ravel(), g, faces)
    ref = s * v_coordinates(diffusion_solve(VelocityField.from_packed(g, faces), g.dt).data,
                            g).reshape(c.shape)
    e = s * c
    got = np.empty_like(c)
    v_step(e, g, got, v_work(g))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # in place, as the marches take it, with the same bits
    v_step(e, g, e, v_work(g))
    assert np.array_equal(e, got)
    if nx * ny <= 64 * 64:
        # grids up to 64 x 64 lie below the cut: the products of the whole
        # factors, bit for bit
        wy, wx, m_u, m_v, s2 = grid_module._v_factors(g)
        e = s * c
        whole = s2 * ((e.dot(wy) * m_u).dot(wy.T.copy()) + wx.T.copy().dot(m_v * wx.dot(e)))
        assert np.array_equal(got, whole)


@pytest.mark.parametrize("nx, ny, Lx, Ly", STEP_GRIDS)
def test_v_step_factors_are_checkerboards(nx, ny, Lx, Ly):
    # the step on the parity classes drops the entries of W_y and W_x whose
    # 0-based mode indices sum to an even number: they must be rounding noise
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=8, T=0.3)
    wy, wx, *_ = grid_module._v_factors(g)
    for w in (wy, wx):
        k, l = np.indices(w.shape)
        assert np.abs(w[(k + l) % 2 == 0]).max() <= 1e-13 * np.abs(w).max()


def test_v_step_tables_are_built_once_per_grid(monkeypatch):
    # the step reads its tables as an attribute of the grid, built by its
    # first v_work or step, not per step and not through a cache keyed by
    # grid value; the second grid lies above the cut and keeps only the
    # parity blocks of the factors, not the whole W_y and W_x
    built = []
    tables = grid_module._v_step_tables
    monkeypatch.setattr(grid_module, "_v_step_tables",
                        lambda grid: built.append((grid, tables(grid))) or built[-1][1])
    for nx, ny, step in ((12, 10, grid_module._full_step), (100, 96, grid_module._split_step)):
        built.clear()
        g = GridSpec(nx=nx, ny=ny, Lx=1.1, Ly=0.9, nt=8, T=0.45)
        c, work = np.ones((g.nx - 1, g.ny - 1)), v_work(g)
        for _ in range(3):
            v_step(c, g, c, work)
        assert [grid for grid, _ in built] == [g]
        assert GridSpec(nx=nx, ny=ny, Lx=1.1, Ly=0.9, nt=8, T=0.45)._v_step is not g._v_step
        form, *kept = built[0][1]
        assert form is step
    # the tables of the last grid, above the cut
    whole = {(ny - 1, ny), (ny, ny - 1), (nx, nx - 1), (nx - 1, nx)}
    assert not whole & {a.shape for a in kept}


def _step_tables_through_the_diffusion_tables(g):
    """The step's tables as they were built from the whole factors of the
    diffusion solve's sine matrices and multipliers, and then sliced: the
    reference of the tables that the step builds from slices of them."""
    sx, sy = grid_module._dst1_matrix(g.nx - 1), grid_module._dst1_matrix(g.ny - 1)
    tx = grid_module._dst2_matrix(g.nx)
    ty_t = np.ascontiguousarray(grid_module._dst2_matrix(g.ny).T)
    m_u, m_v = grid_module._multipliers(g, g.dt)
    ey, fx = grid_module._differences(g)
    wy, wx = sy @ ey @ ty_t, tx @ fx @ sx
    s = g._v[2].reshape(g.nx - 1, g.ny - 1)
    if not grid_module._splits(g):
        return [wy, wy.T.copy(), wx, wx.T.copy(), np.concatenate([m_u.ravel(), m_v.ravel()]),
                s * s]
    blocks = (wy[0::2, 1::2], wy[1::2, 0::2], wx[1::2, 0::2], wx[0::2, 1::2])
    m = np.concatenate([m_u[:, 1::2].ravel(), m_u[:, 0::2].ravel(),
                        m_v[1::2].ravel(), m_v[0::2].ravel()])
    return [f for b in blocks for f in (b.copy(), b.T.copy())] + [m, s * s]


@pytest.mark.parametrize("nx, ny, Lx, Ly", STEP_GRIDS + [(16, 20, 1.7, 1.0), (64, 68, 1.7, 1.0)])
def test_v_step_tables_match_the_diffusion_tables(nx, ny, Lx, Ly):
    # below the cut the step's tables keep the bits of the whole factors
    # built from diffusion_solve's sine matrices; above it each parity block is a
    # product of slices, which moves it by rounding only
    g = GridSpec(nx=nx, ny=ny, Lx=Lx, Ly=Ly, nt=8, T=0.3)
    form, *got = grid_module._v_step_tables(g)
    ref = _step_tables_through_the_diffusion_tables(g)
    assert form is (grid_module._split_step if nx * ny >= 96 * 96 else grid_module._full_step)
    assert [a.shape for a in got] == [a.shape for a in ref]
    assert all(a.flags.c_contiguous for a in got)
    for a, b in zip(got, ref):
        if form is grid_module._full_step:
            assert np.array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


def test_inner_space_time_constant_fields():
    g = GridSpec(nx=16, ny=16, nt=16, T=1.0)
    ones = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    t = Trajectory(g, [ones] * (g.nt + 1))
    assert abs(inner_space_time(t, t) - 2.0) < 1e-12
    assert inner_space_time(t, Trajectory.zeros(g)) == 0.0


def test_inner_space_time_region_mask():
    g = GridSpec(nx=16, ny=16, nt=16, T=1.0)
    ones = VelocityField(g, np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    t = Trajectory(g, [ones] * (g.nt + 1))
    mask = Region(0.5, 1.0, 0.5, 1.0).face_mask(g)  # area 1/4, grid aligned
    assert abs(inner_space_time(t, t, mask) - 0.5) < 1e-12


@pytest.mark.parametrize("mask_kind", [None, "face_mask", "region", "cutoff"])
def test_inner_space_time_matches_per_level_inner(rng, mask_kind):
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.8, nt=12, T=0.7)
    a, b = state_traj(g, rng), state_traj(g, rng)
    region = Region(0.2, 0.7, 0.1, 0.6)
    # every mask is a face mask: of the region, of a second region, of a cutoff
    mask = {None: None, "face_mask": region.face_mask(g),
            "region": Region(0.3, 0.9, 0.2, 0.7).face_mask(g),
            "cutoff": SmoothCutoff.for_grid(region, g).face_mask(g)}[mask_kind]
    w = np.ones(g.nt + 1)
    w[0] = w[-1] = 0.5
    ref = sum(w[m] * g.dt * inner(a[m], b[m], mask) for m in range(g.nt + 1))
    assert abs(inner_space_time(a, b, mask) - ref) <= 1e-14 * abs(ref)


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
    area = (r.x1 - r.x0) * (r.y1 - r.y0)
    cm = r.cell_mask(g)
    assert cm.sum() * g.cell_area == pytest.approx(area, abs=1e-14)
    fm = r.face_mask(g)
    # face-averaged mask integrates to the exact area per component
    wu = np.ones((g.nx + 1, g.ny)); wu[0] = wu[-1] = 0.5
    assert (fm.u * wu).sum() * g.cell_area == pytest.approx(area, abs=1e-14)


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
    for shape in [(g.nt, g.n_faces), (g.nt + 1, g.n_faces + 1), (g.n_faces,)]:
        with pytest.raises(ConfigurationError, match="shape"):
            Trajectory(g, np.zeros(shape))
    traj = Trajectory.zeros(g)
    with pytest.raises(ConfigurationError):
        traj[2] = VelocityField.zeros(g2)


def test_trajectory_snapshots_view_the_stack(rng):
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    fields = [closed_noise(g, rng) for _ in range(g.nt + 1)]
    traj = Trajectory(g, fields)
    # the list form copies its snapshots into the stack
    fields[3].u[4, 5] = 99.0
    assert traj[3].u[4, 5] != 99.0
    u, v = face_views(traj.data, g)
    for m, f in enumerate(traj):
        assert np.shares_memory(f.u, traj.data) and np.shares_memory(f.v, traj.data)
        assert np.array_equal(f.u, u[m]) and np.array_equal(f.v, v[m])
    # a snapshot writes through to the stack
    snap = traj[2]
    snap.v[1, 1] = -7.0
    assert v[2, 1, 1] == -7.0 and traj[2].v[1, 1] == -7.0
    # assignment copies
    new = closed_noise(g, rng)
    traj[5] = new
    assert np.array_equal(u[5], new.u) and np.array_equal(v[5], new.v)
    new.u[3, 3] = 42.0
    assert u[5, 3, 3] != 42.0
    # a stack becomes the storage itself, without a copy
    stack = np.zeros((g.nt + 1, g.n_faces))
    assert Trajectory(g, stack).data is stack


def test_trajectory_arithmetic_matches_per_level_fields(rng):
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    a, b = state_traj(g, rng), state_traj(g, rng)
    mask = SmoothCutoff.for_grid(Region(0.1, 0.6, 0.2, 0.9), g).face_mask(g)
    cases = [
        (a + b, lambda m: a[m] + b[m]),
        (a - b, lambda m: a[m] - b[m]),
        (a * 0.37, lambda m: a[m] * 0.37),
        (-1.3 * a, lambda m: -1.3 * a[m]),
        (a.mul_mask(mask), lambda m: a[m].mul_mask(mask)),
        (a.copy(), lambda m: a[m]),
        (Trajectory(g, [b[4]] * (g.nt + 1)), lambda m: b[4]),
    ]
    for traj, ref in cases:
        for m in range(g.nt + 1):
            assert np.array_equal(traj[m].u, ref(m).u)
            assert np.array_equal(traj[m].v, ref(m).v)
    assert a.max_abs() == max(f.max_abs() for f in a)
    assert not np.shares_memory(a.copy().data, a.data)


def test_stream_function_velocity_div_free(rng):
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.7, nt=8, T=1.0)
    psi = rng.standard_normal((g.nx + 1, g.ny + 1))
    psi[0, :] = psi[-1, :] = psi[:, 0] = psi[:, -1] = 0.0
    w = stream_function_velocity(g, psi)
    assert divergence(w).max_abs() < 1e-12
    assert _normal_faces_zero(w)


def test_stream_function_velocity_is_q_of_the_sine_coordinates(rng):
    # the V basis is the curl of scaled DST-I modes: an interior psi has the
    # coordinates c = diag(lambda^1/2) (S_x (x) S_y) psi, with lambda the
    # Dirichlet eigenvalues written out here, and Q c is its velocity
    g = GridSpec(nx=12, ny=9, Lx=1.3, Ly=0.7, nt=8, T=1.0)
    psi = np.zeros((g.nx + 1, g.ny + 1))
    psi[1:-1, 1:-1] = rng.standard_normal((g.nx - 1, g.ny - 1))

    def lam(n, h):
        return (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)) / h**2

    modes = _dst1_matrix(g.nx - 1) @ psi[1:-1, 1:-1] @ _dst1_matrix(g.ny - 1)
    c = (modes * np.sqrt(lam(g.nx, g.hx)[:, None] + lam(g.ny, g.hy)[None, :])).ravel()
    out = np.empty(g.n_faces)
    v_velocities(c, g, out)
    ref = stream_function_velocity(g, psi).data
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_binary_roundtrip(tmp_path, rng):
    # one file per trajectory, read back bit-exact into a writable stack of its own
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    traj = state_traj(g, rng, amp=0.5)
    path = fieldio.write_trajectory(tmp_path / "traj", "y", traj)
    assert path == tmp_path / "traj" / "y.sgf"
    assert [p.name for p in (tmp_path / "traj").iterdir()] == ["y.sgf"]
    got = fieldio.read_trajectory(tmp_path / "traj", "y", g)
    assert got.data.tobytes() == traj.data.tobytes()
    assert got.data.flags.writeable and got.data.flags.owndata
    got.data[1] += 1.0
    assert traj_norm(got - traj) > 0.0


def test_binary_corruption_detected(tmp_path, rng):
    import struct

    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    blob = fieldio.write_trajectory(tmp_path, "y", state_traj(g, rng)).read_bytes()
    w = closed_noise(g, rng)
    sgf1 = struct.pack("<4scII", b"SGF1", b"V", g.nx, g.ny) + w.data.tobytes()
    cases = [
        (blob[:15], g, "too short"),
        (b"JUNK" + blob[4:], g, "not an SGF2"),
        (sgf1, g, "not an SGF2"),  # a snapshot file of the old layout
        (blob, GridSpec(nx=8, ny=8, nt=8, T=1.0), "holds a 16x12 grid"),
        (blob, GridSpec(nx=16, ny=12, nt=16, T=1.0), "holds 9 levels, expected 17"),
        (blob[: len(blob) // 2], g, "payload"),
        (blob + bytes(8), g, "payload"),
    ]
    for i, (data, grid, what) in enumerate(cases):
        (tmp_path / f"bad{i}.sgf").write_bytes(data)
        with pytest.raises(ConfigurationError, match=what) as err:
            fieldio.read_trajectory(tmp_path, f"bad{i}", grid)
        assert str(tmp_path / f"bad{i}.sgf") in str(err.value), i


# ---------------------------------------------------------------------------
# one packed face layout for fields, masks and trajectory rows, checked
# against inline copies of the former two-array (u, v) forms
# ---------------------------------------------------------------------------

def _two_array_face_mask(region, g):
    c = region.cell_mask(g)
    on_u = np.zeros((g.nx + 1, g.ny))
    on_u[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
    on_u[0, :] = c[0, :]
    on_u[-1, :] = c[-1, :]
    on_v = np.zeros((g.nx, g.ny + 1))
    on_v[:, 1:-1] = 0.5 * (c[:, 1:] + c[:, :-1])
    on_v[:, 0] = c[:, 0]
    on_v[:, -1] = c[:, -1]
    return on_u, on_v


def _two_sum_inner(a, b, mask_uv=None):
    g = a.grid
    wu = np.ones((g.nx + 1, g.ny))
    wu[0, :] = 0.5
    wu[-1, :] = 0.5
    wv = np.ones((g.nx, g.ny + 1))
    wv[:, 0] = 0.5
    wv[:, -1] = 0.5
    pu = wu * a.u * b.u
    pv = wv * a.v * b.v
    if mask_uv is not None:
        pu = pu * mask_uv[0]
        pv = pv * mask_uv[1]
    return g.cell_area * (float(pu.sum()) + float(pv.sum()))


def test_velocity_field_is_one_packed_vector(rng):
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    u = rng.standard_normal((g.nx + 1, g.ny))
    v = rng.standard_normal((g.nx, g.ny + 1))
    f = VelocityField(g, u, v)
    assert f.data.shape == (g.n_faces,)
    assert np.array_equal(f.data, np.concatenate([u.ravel(), v.ravel()]))
    # the constructor copies its arrays; u and v view the packed vector
    assert not np.shares_memory(f.data, u) and not np.shares_memory(f.data, v)
    assert np.shares_memory(f.u, f.data) and np.shares_memory(f.v, f.data)
    assert np.array_equal(f.u, u) and np.array_equal(f.v, v)
    f.v[2, 3] = 5.0
    assert f.data[(g.nx + 1) * g.ny + 2 * (g.ny + 1) + 3] == 5.0 and v[2, 3] != 5.0
    # the packed constructor wraps its vector without a copy and checks its shape
    data = rng.standard_normal(g.n_faces)
    assert VelocityField.from_packed(g, data).data is data
    for shape in [(g.n_faces + 1,), (1, g.n_faces)]:
        with pytest.raises(ConfigurationError, match="shape"):
            VelocityField.from_packed(g, np.zeros(shape))
    # packed vectors of a 16x12 and a 12x16 grid have the same length
    t = GridSpec(nx=12, ny=16, nt=8, T=1.0)
    assert t.n_faces == g.n_faces
    other = VelocityField.zeros(t)
    for op in (lambda: f + other, lambda: f - other, lambda: f.mul_mask(other),
               lambda: state_traj(g, rng).mul_mask(other)):
        with pytest.raises(ConfigurationError, match="different faces"):
            op()
    # a trajectory snapshot's data is its row
    traj = state_traj(g, rng)
    for m in (0, 3, g.nt):
        row = traj[m].data
        assert np.shares_memory(row, traj.data) and np.array_equal(row, traj.data[m])
        row[7] = -1.0
        assert traj.data[m, 7] == -1.0


def test_masks_match_two_array_construction():
    g = GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.8, nt=8, T=1.0)
    region = Region(0.2, 0.7, 0.1, 0.6)
    cutoff = SmoothCutoff.for_grid(region, g)
    xu, yu = g.u_face_coords()
    xv, yv = g.v_face_coords()
    on_u, on_v = _two_array_face_mask(region, g)
    cases = [
        (region.face_mask, (on_u, on_v)),
        (region.face_indicator, ((on_u >= 1.0).astype(float), (on_v >= 1.0).astype(float))),
        (cutoff.face_mask, (cutoff.evaluate(xu[:, None], yu[None, :]),
                            cutoff.evaluate(xv[:, None], yv[None, :]))),
    ]
    for build, (ref_u, ref_v) in cases:
        mask = build(g)
        assert np.array_equal(mask.u, ref_u) and np.array_equal(mask.v, ref_v)
        assert np.array_equal(mask.data, np.concatenate([ref_u.ravel(), ref_v.ravel()]))
        # built once per grid and shared, so it cannot be written
        assert build(g) is mask
        assert build(GridSpec(nx=16, ny=12, Lx=1.0, Ly=0.8, nt=8, T=1.0)) is mask
        for target in (mask.data, mask.u, mask.v):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 1.0


@pytest.mark.parametrize("nx,ny", [(16, 16), (16, 12), (48, 32)])
def test_inner_matches_two_sum_form(rng, nx, ny):
    g = GridSpec(nx=nx, ny=ny, Lx=1.0, Ly=0.8, nt=8, T=1.0)
    region = Region(0.2, 0.7, 0.1, 0.6)
    cutoff = SmoothCutoff.for_grid(region, g)
    weights = VelocityField(g, rng.random((g.nx + 1, g.ny)), rng.random((g.nx, g.ny + 1)))
    masks = [None, weights, region.face_mask(g), region.face_indicator(g), cutoff.face_mask(g)]
    for _ in range(5):
        # unclosed fields, so the boundary weights count
        a = VelocityField(g, rng.standard_normal((g.nx + 1, g.ny)),
                          rng.standard_normal((g.nx, g.ny + 1)))
        b = closed_noise(g, rng) + a * 0.5
        for mask in masks:
            ref = _two_sum_inner(a, b, None if mask is None else (mask.u, mask.v))
            assert inner(a, b, mask) == ref


def test_write_trajectory_bytes_match_u_then_v_writer(tmp_path, rng):
    import struct

    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    levels = [VelocityField(g, rng.standard_normal((g.nx + 1, g.ny)),
                            rng.standard_normal((g.nx, g.ny + 1))) for _ in range(g.nt + 1)]
    traj = Trajectory(g, levels)
    path = fieldio.write_trajectory(tmp_path, "w", traj)
    ref = struct.pack("<4sIII", b"SGF2", g.nx, g.ny, g.nt + 1)
    for w in levels:
        ref += (np.ascontiguousarray(w.u, dtype="<f8").tobytes()
                + np.ascontiguousarray(w.v, dtype="<f8").tobytes())
    assert path.read_bytes() == ref
    back = fieldio.read_trajectory(tmp_path, "w", g)
    assert back.data.flags.writeable and back.data.tobytes() == traj.data.tobytes()