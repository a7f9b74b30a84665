import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackstokes.carleman import (
    _ETA_MAX,
    CarlemanParams,
    WeightFamily,
    _eta,
    _log_num,
    _log_quadrature,
    _observability_weights,
    _signed_exponent,
    alpha_ratio,
    check_laplacian_weight_bound,
    check_weight_domination,
    log_weight_eval,
    observability_ratio,
    weighted_norm_components,
)
from stackstokes.errors import ConfigurationError, PoleError
from stackstokes.grid import (
    GridSpec,
    Region,
    Trajectory,
    VelocityField,
    project_div_free,
    trapezoid_weights,
)
from stackstokes.harness import parse_config
from stackstokes.stokes import Coupling

from conftest import closed_noise, control_traj, make_setup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_params_constraint_chain():
    CarlemanParams(lam=2.0, s=3.0)  # defaults a0=2, m0=3.5 admissible
    with pytest.raises(ConfigurationError):
        CarlemanParams(lam=2.0, s=3.0, a0=1.0, m0=2.5)
    with pytest.raises(ConfigurationError):
        CarlemanParams(lam=2.0, s=3.0, a0=2.0, m0=4.0)  # m0 = 2*a0 not allowed
    with pytest.raises(ConfigurationError):
        CarlemanParams(lam=2.0, s=3.0, a0=2.0, m0=3.0)  # m0 = a0+1 not allowed
    with pytest.raises(ConfigurationError):
        CarlemanParams(lam=-1.0, s=3.0)


def test_weight_closed_form_value():
    # xi at eta = 0, lam = 1, |eta| = 1, T = 1, t = 1/2:  e^10 * 4^5
    p = CarlemanParams(lam=1.0, s=1.0)
    got = math.exp(log_weight_eval(p, WeightFamily.XI, 1.0, 0.5, eta_value=0.0))
    assert got == pytest.approx(math.exp(10.0) * 1024.0, rel=1e-13)


def test_weight_pole_errors():
    p = CarlemanParams(lam=1.0, s=1.0)
    for t in (0.0, 1.0):
        with pytest.raises(PoleError):
            log_weight_eval(p, WeightFamily.ALPHA, 1.0, t)
    with pytest.raises(PoleError):
        log_weight_eval(p, WeightFamily.BETA, 1.0, 1.0)
    # the flat-start family is finite at t = 0
    assert math.isfinite(log_weight_eval(p, WeightFamily.BETA, 1.0, 0.0))


def test_pole_divergence_on_refining_grid():
    p = CarlemanParams(lam=1.0, s=1.0)
    T = 1.0
    for fam in (WeightFamily.ALPHA, WeightFamily.XI):
        vals = [math.exp(log_weight_eval(p, fam, T, t, eta_value=0.5))
                for t in (1e-3, 1e-4, 1e-5)]
        assert vals[-1] > 1e12 and vals[0] < vals[1] < vals[2]
    # beta/tau blow up only at t = T
    for fam in (WeightFamily.BETA, WeightFamily.TAU):
        near_T = [math.exp(log_weight_eval(p, fam, T, T - dt))
                  for dt in (1e-3, 1e-4, 1e-5)]
        assert near_T[-1] > 1e12
        assert math.exp(log_weight_eval(p, fam, T, 1e-6)) == pytest.approx(
            math.exp(log_weight_eval(p, fam, T, 0.25)), rel=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.2, 8.0), t=st.floats(0.01, 0.99), eta=st.floats(0.0, 1.0))
def test_weight_ordering(lam, t, eta):
    p = CarlemanParams(lam=lam, s=1.0)
    # the starred and hatted extremes are the family at eta = 0 and eta = M
    M = _ETA_MAX
    la = log_weight_eval(p, WeightFamily.ALPHA, 1.0, t, eta_value=eta)
    lah = log_weight_eval(p, WeightFamily.ALPHA, 1.0, t, eta_value=M)
    las = log_weight_eval(p, WeightFamily.ALPHA, 1.0, t, eta_value=0.0)
    assert lah <= la + 1e-12 and la <= las + 1e-12
    lx = log_weight_eval(p, WeightFamily.XI, 1.0, t, eta_value=eta)
    lxs = log_weight_eval(p, WeightFamily.XI, 1.0, t, eta_value=0.0)
    lxh = log_weight_eval(p, WeightFamily.XI, 1.0, t, eta_value=M)
    assert lxs <= lx + 1e-12 and lx <= lxh + 1e-12


def test_every_family_refuses_eta_outside_its_range():
    # no family reads an eta of its own: one outside [0, M] is refused
    # by every family, by the evaluator and by the signed exponent alike
    p = CarlemanParams(lam=1.0, s=1.0)
    M = _ETA_MAX
    for fam in WeightFamily:
        for eta in (-0.1, M + 1e-12, 1.6, 5.0, np.array([0.5, 2.0])):
            with pytest.raises(ConfigurationError, match="outside"):
                log_weight_eval(p, fam, 1.0, 0.5, eta_value=eta)
            with pytest.raises(ConfigurationError, match="outside"):
                _signed_exponent(p, 1.0, 0.5, [(fam, eta, 1.0)])
        # an eta inside the range is the one evaluated
        at = [log_weight_eval(p, fam, 1.0, 0.5, eta_value=e) for e in (0.0, 0.3, M)]
        assert len(set(at)) == 3


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_eta_max_is_the_maximum_of_the_profile(path):
    # M is the value of eta at the center of the box and bounds eta on every
    # face of the shipped grids: the weights take their hatted extreme there
    g = parse_config(path).grid
    assert _eta(g, g.Lx / 2, g.Ly / 2) == _ETA_MAX
    faces = VelocityField.from_functions(g, partial(_eta, g), partial(_eta, g)).data
    assert faces.max() <= _ETA_MAX and faces.min() >= 0.0


def test_frozen_families_match_open_ones_late():
    p = CarlemanParams(lam=2.0, s=3.0)
    T = 1.0
    for t in np.linspace(0.5, 0.99, 9):
        for open_fam, frozen_fam in (
            (WeightFamily.ALPHA, WeightFamily.BETA),
            (WeightFamily.XI, WeightFamily.TAU),
        ):
            a = log_weight_eval(p, open_fam, T, float(t), eta_value=0.3)
            b = log_weight_eval(p, frozen_fam, T, float(t), eta_value=0.3)
            assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)


def test_overflow_contract_large_s_lam():
    # log-domain evaluations stay finite for s*lam products up to 1e4
    for lam, s in ((100.0, 100.0), (1e4, 1.0), (1.0, 1e4)):
        p = CarlemanParams(lam=lam, s=s)
        lw = log_weight_eval(p, WeightFamily.ALPHA, 1.0, 0.3, eta_value=0.4)
        assert math.isfinite(lw)
        rep = check_weight_domination(p, 1.0, epsilon=10.0, t_grid=np.linspace(0.1, 0.9, 17))
        assert not math.isnan(rep.max_log_ratio)


def test_alpha_ratio_limits_and_value():
    assert abs(alpha_ratio(50.0) - 1.0) <= 1e-9
    assert abs(alpha_ratio(1e-6) - 0.5) <= 1e-5
    # high-precision reference value for lam = |eta| = 1, computed once with
    # 40-digit arithmetic from (e^12 - e^11)/(e^12 - e^10)
    assert alpha_ratio(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)


def test_domination_large_epsilon_ratio_below_one():
    p = CarlemanParams(lam=1.0, s=10.0)
    rep = check_weight_domination(p, 24.0, epsilon=10.0)
    assert math.isfinite(rep.max_log_ratio) and rep.max_ratio < 1.0


def test_domination_precondition_violation():
    # (1+eps) * F(lam) <= 1 for small eps and lam
    with pytest.raises(ConfigurationError):
        check_weight_domination(CarlemanParams(lam=1e-4, s=1.0), 1.0, epsilon=0.5)


def test_domination_monotone_in_lam():
    vals = []
    for lam in (1.0, 2.0, 4.0):
        rep = check_weight_domination(CarlemanParams(lam=lam, s=3.0), 24.0, epsilon=1.0)
        vals.append(rep.max_log_ratio)
    assert vals[0] >= vals[1] >= vals[2]


def test_laplacian_bound_trivial_cases(rng):
    L = 16.0
    g = GridSpec(nx=16, ny=16, Lx=L, Ly=L, nt=16, T=24.0)
    p = CarlemanParams(lam=2.0, s=5.0)
    omega = Region(0.35 * L, 0.75 * L, 0.35 * L, 0.75 * L)
    zero = VelocityField.zeros(g)
    [rep] = check_laplacian_weight_bound(p, g.T, [zero], omega)
    assert rep.max_ratio == 0.0
    # field supported away from omega (2-cell margin so its Laplacian is too)
    corner = VelocityField.zeros(g)
    corner.u[1:3, 1:3] = 1.0
    [rep] = check_laplacian_weight_bound(p, g.T, [corner], omega)
    assert rep.max_ratio == 0.0


def test_laplacian_bound_hypothesis_guard():
    p = CarlemanParams(lam=2.0, s=5.0, a0=1.5, m0=2.75)  # valid chain, a0 < 2
    g = GridSpec(nx=16, ny=16, nt=16, T=24.0)
    with pytest.raises(ConfigurationError):
        check_laplacian_weight_bound(p, g.T, [VelocityField.zeros(g)], Region(0.3, 0.7, 0.3, 0.7))


def test_laplacian_bound_tgrid_stability(rng):
    L = 16.0
    g = GridSpec(nx=16, ny=16, Lx=L, Ly=L, nt=16, T=24.0)
    p = CarlemanParams(lam=2.0, s=5.0)
    omega = Region(0.35 * L, 0.75 * L, 0.35 * L, 0.75 * L)
    us = [project_div_free(closed_noise(g, rng)) for _ in range(10)]
    r1, r2 = check_laplacian_weight_bound(p, g.T, us, omega, n_times=(96, 192))
    assert 0.8 <= r2.max_ratio / r1.max_ratio <= 1.2


def _diag_setup():
    setup = make_setup(nx=16, ny=16, nt=16, T=24.0, L=16.0)
    coup = Coupling.build(setup["grid"], setup["chi"], setup["obs"], 10.0, 10.0, 1.0)
    return setup, coup


def _terminal_samples(g, seed, n):
    """n projected noise fields, drawn in the order the carleman pipeline draws them."""
    rng = np.random.default_rng(seed)
    return [project_div_free(closed_noise(g, rng)) for _ in range(n)]


def test_observability_zero_sample_convention():
    setup, coup = _diag_setup()
    p = CarlemanParams(lam=2.0, s=3.0)
    rep = observability_ratio(p, coup, setup["omega"], [VelocityField.zeros(setup["grid"])])
    assert rep.ratios == [0.0]


def test_observability_decoupled_baseline(rng):
    setup, _ = _diag_setup()
    g = setup["grid"]
    coup = Coupling.build(g, setup["chi"], setup["obs"], math.inf, math.inf, 0.0)
    p = CarlemanParams(lam=2.0, s=3.0)
    rep = observability_ratio(p, coup, setup["omega"], _terminal_samples(g, 7, 4))
    assert len(rep.ratios) == 4
    assert all(math.isfinite(r) and r > 0 for r in rep.ratios)


def test_observability_sample_stability(rng):
    setup, coup = _diag_setup()
    g, p = setup["grid"], CarlemanParams(lam=2.0, s=3.0)
    r1 = observability_ratio(p, coup, setup["omega"], _terminal_samples(g, 3, 6))
    r2 = observability_ratio(p, coup, setup["omega"], _terminal_samples(g, 3, 12))
    assert 0.5 <= r2.max_ratio / r1.max_ratio <= 2.0


def test_weighted_norm_zero_tuple():
    g = GridSpec(nx=16, ny=16, nt=16, T=2.0)
    p = CarlemanParams(lam=2.0, s=3.0)
    rep = weighted_norm_components(Trajectory.zeros(g), Trajectory.zeros(g),
                                   Trajectory.zeros(g), p, omega=Region(0.3, 0.7, 0.3, 0.7))
    assert all(v == -math.inf for v in rep.values())


def test_weighted_norm_of_an_overflowing_weight_is_infinite_not_nan(rng):
    # a weight whose exponent overflows makes its quadrature +inf; the log-sum-exp
    # must not subtract that maximum from itself, which gives inf - inf = NaN
    assert _log_quadrature(np.array([1.0, math.inf, 2.0]), np.ones(3), 0.1) == math.inf
    assert _log_quadrature(np.array([-math.inf, math.inf]), np.ones(2), 0.1) == math.inf
    g = GridSpec(nx=8, ny=8, nt=8, T=2.0)
    y = control_traj(g, rng)
    rep = weighted_norm_components(y, y, y, CarlemanParams(lam=2.0, s=1e300),
                                   omega=Region(0.3, 0.7, 0.3, 0.7))
    assert not any(math.isnan(v) for v in rep.values()), rep


def test_weighted_norm_mask_idempotence(rng):
    # an omega-supported control has the same weighted norm with or without
    # the extra omega restriction
    setup = make_setup(nt=16, T=2.0)
    g = setup["grid"]
    p = CarlemanParams(lam=2.0, s=3.0)
    h = control_traj(g, rng).mul_mask(setup["omega"].face_indicator(g))
    a = weighted_norm_components(Trajectory.zeros(g), None, h, p, omega=setup["omega"])
    b = weighted_norm_components(Trajectory.zeros(g), None, h, p, omega=None)
    assert a["h_l2"] == pytest.approx(b["h_l2"], abs=1e-12)


# ---------------------------------------------------------------------------
# the array evaluator against the per-time formulas it replaced
# ---------------------------------------------------------------------------

def test_array_weights_match_scalar_calls():
    p = CarlemanParams(lam=2.0, s=3.0)
    T = 24.0
    ts = np.linspace(T / 512, T - T / 512, 256)
    for fam in WeightFamily:
        for eta in (0.0, 0.3, _ETA_MAX):
            logs = log_weight_eval(p, fam, T, ts, eta_value=eta)
            assert np.array_equal(logs, [log_weight_eval(p, fam, T, float(t), eta) for t in ts])
        assert isinstance(log_weight_eval(p, fam, T, 0.5), float)
    # an array of eta values broadcasts against a column of times
    grid = log_weight_eval(p, WeightFamily.BETA, T, ts[:, None],
                           eta_value=np.array([0.0, 0.5, 1.0]))
    assert grid.shape == (256, 3)
    assert grid[7, 1] == log_weight_eval(p, WeightFamily.BETA, T, ts[7], 0.5)


def test_array_pole_errors():
    p = CarlemanParams(lam=1.0, s=1.0)
    with pytest.raises(PoleError):
        log_weight_eval(p, WeightFamily.ALPHA, 1.0, np.array([0.0, 0.5]))
    with pytest.raises(PoleError):
        log_weight_eval(p, WeightFamily.TAU, 1.0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(PoleError):
        log_weight_eval(p, WeightFamily.BETA, 1.0, np.array([-0.1, 0.5]))
    with pytest.raises(PoleError):
        check_weight_domination(p, 1.0, epsilon=10.0, t_grid=np.array([0.5, 1.0]))
    # the flat-start family is finite at t = 0 in an array too
    assert np.isfinite(log_weight_eval(p, WeightFamily.BETA, 1.0,
                                       np.array([0.0, 0.5]))).all()


def _signed_exponent_per_time(params, T, t, terms, alpha_kind):
    """The scalar signed exponent the array helper replaced, for one time."""
    logs = [_log_num(params, fam, eta) for fam, eta, _ in terms]
    L = max(logs)
    ssum = sum(c * math.exp(l - L) for (_, _, c), l in zip(terms, logs))
    if ssum == 0.0:
        return 0.0
    if not (0.0 < t < T if alpha_kind else 0.0 <= t < T):  # a pole
        return math.copysign(math.inf, ssum)
    tt = T * T / 4.0 if not alpha_kind and t <= T / 2.0 else t * (T - t)
    mag = math.log(params.s) + L + math.log(abs(ssum)) - 5.0 * math.log(tt)
    if mag > 709.0:
        return math.copysign(math.inf, ssum)
    return math.copysign(math.exp(mag), ssum)


@pytest.mark.parametrize("alpha_kind", [True, False])
def test_signed_exponent_matches_per_time_formula(alpha_kind):
    fam = WeightFamily.ALPHA if alpha_kind else WeightFamily.BETA
    M = _ETA_MAX  # starred is eta = 0, hatted eta = M
    T = 1.0
    ts = np.concatenate(([0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0], np.linspace(0.01, 0.99, 41)))
    cases = [
        (CarlemanParams(lam=2.0, s=3.0), [(fam, 0.0, 1.0), (fam, M, -2.0)]),
        (CarlemanParams(lam=2.0, s=3.0), [(fam, 0.0, -4.0), (fam, 0.4, 3.0)]),
        (CarlemanParams(lam=2.0, s=3.0), [(fam, 0.0, 1.5), (fam, 0.0, -1.5)]),  # cancels
        (CarlemanParams(lam=50.0, s=100.0), [(fam, 0.0, 2.0)]),  # beyond e^709
        (CarlemanParams(lam=50.0, s=100.0), [(fam, 0.0, -2.0), (fam, 0.9, 0.5)]),
    ]
    seen = set()
    for params, terms in cases:
        got = _signed_exponent(params, T, ts, terms)
        want = np.array([_signed_exponent_per_time(params, T, float(t), terms, alpha_kind)
                         for t in ts])
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert np.allclose(got[finite], want[finite], rtol=1e-15, atol=0.0)
        seen |= {"+inf" if w == math.inf else "-inf" if w == -math.inf else
                 "zero" if w == 0.0 else "finite" for w in want}
    assert seen == {"+inf", "-inf", "zero", "finite"}


def test_observability_weights_match_per_level_loops():
    # an inline copy of the per-level loops and the hand-written observation
    # exponent that the array helper replaced
    setup, _ = _diag_setup()
    g, omega = setup["grid"], setup["omega"]
    for params in (CarlemanParams(lam=2.0, s=3.0), CarlemanParams(lam=1.0, s=0.5, a0=2.5, m0=4.0)):
        a0, m0, s, lam, M, T = params.a0, params.m0, params.s, params.lam, _ETA_MAX, g.T
        times = g.times()
        wq = trapezoid_weights(g.nt) * g.dt
        phi_w, theta_w = np.zeros(g.nt + 1), np.zeros(g.nt + 1)
        rhs_w = np.zeros((g.nt + 1, g.n_faces))
        eta = VelocityField.from_functions(
            g, *2 * [lambda x, y: np.sin(np.pi * x / g.Lx) * np.sin(np.pi * y / g.Ly)]).data
        q = -4.0 * a0 * (1.0 - math.exp(-2.0 * lam * M)) + 2.0 * (m0 - 2.0) * (
            1.0 - np.exp(-lam * (2.0 * M - eta)))
        for m, t in enumerate(times[:-1]):
            e1 = _signed_exponent_per_time(params, T, t, [(WeightFamily.BETA, 0.0, -2.0 * m0)], False)
            e2 = _signed_exponent_per_time(params, T, t, [(WeightFamily.BETA, 0.0, -2.0 * (a0 + 1.0))], False)
            tau_star = log_weight_eval(params, WeightFamily.TAU, T, t)
            phi_w[m] = math.exp(e1 + 3.0 * tau_star)
            theta_w[m] = math.exp(e2 + 3.0 * tau_star)
            tt = T * T / 4.0 if t <= T / 2.0 else t * (T - t)
            base = math.log(s) + 12.0 * lam * M - 5.0 * math.log(tt)
            with np.errstate(divide="ignore"):
                expo = np.sign(q) * np.exp(np.minimum(base + np.log(np.abs(q)), 709.0))
            tau_hat = log_weight_eval(params, WeightFamily.TAU, T, t, M)
            rhs_w[m] = np.exp(np.minimum(expo + 15.0 * tau_hat, 709.0))
        rhs_w *= omega.face_mask(g).data * (wq * g.cell_area)[:, None]
        got = _observability_weights(params, g, omega)
        assert np.allclose(got[0], phi_w, rtol=1e-13, atol=0.0)
        assert np.allclose(got[1], theta_w, rtol=1e-13, atol=0.0)
        # the observation weight reaches e^-400: its exponent is compared, since
        # a last-digit change of the exponent moves such a value by 1e-12
        pos = rhs_w > 0.0
        assert np.array_equal(got[2] > 0.0, pos) and pos[:-1].any() and not pos[-1].any()
        assert np.allclose(np.log(got[2][pos]), np.log(rhs_w[pos]), rtol=2e-14, atol=0.0)
