import json
import math
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stackstokes
from stackstokes.carleman import CarlemanParams
from stackstokes.errors import ConfigurationError, GeometryError, NumericalError
from stackstokes.grid import (
    GridSpec,
    Trajectory,
    VelocityField,
    closed_noise,
    face_views,
    project_div_free,
)
from stackstokes.harness import (
    EXPERIMENTS,
    config_from_dict,
    default_config_dict,
    parse_config,
    rng_stream,
    run_experiment,
)
from stackstokes.leader import PenaltyConfig
from stackstokes.saddle import RobustParams
from stackstokes.stokes import SolverOptions

TEMPLATES = Path(stackstokes.__file__).with_name("configs")


def test_default_config_roundtrip(tmp_path):
    raw = default_config_dict("saddle")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = parse_config(path)
    assert cfg.experiment == "saddle"
    assert cfg.config_hash() == config_from_dict(raw).config_hash()


def test_geometry_violation_overlap():
    raw = default_config_dict("saddle")
    raw["regions"]["O"] = raw["regions"]["omega"]  # O = omega
    with pytest.raises(GeometryError, match="O n omega"):
        config_from_dict(raw)


def test_geometry_violation_disjoint_obs():
    raw = default_config_dict("saddle")
    raw["regions"]["Od"] = [0.01, 0.2, 0.01, 0.2]
    with pytest.raises(GeometryError, match="omega n O_d"):
        config_from_dict(raw)


def test_geometry_violation_inner_containment():
    raw = default_config_dict("saddle")
    raw["regions"]["omega0"] = [0.05, 0.30, 0.05, 0.30]
    with pytest.raises(GeometryError, match="omega0"):
        config_from_dict(raw)


def test_geometry_violation_inner_region_off_center(tmp_path, capsys):
    # the weight profile's only critical point is the center of the box, so
    # omega0 must hold it; this box sits inside omega n O_d but misses it
    from stackstokes.cli import main

    raw = default_config_dict("saddle")
    raw["regions"]["omega0"] = [0.46, 0.49, 0.46, 0.49]
    with pytest.raises(GeometryError, match="omega0"):
        config_from_dict(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "omega0" in capsys.readouterr().err


def test_constraint_chain_violation():
    raw = default_config_dict("saddle")
    raw["carleman"]["a0"] = 1.0
    with pytest.raises(ConfigurationError, match="a0"):
        config_from_dict(raw)


def test_missing_field_path():
    raw = default_config_dict("saddle")
    del raw["grid"]["nx"]
    with pytest.raises(ConfigurationError, match="grid.nx"):
        config_from_dict(raw)
    raw = default_config_dict("saddle")
    del raw["robust"]
    with pytest.raises(ConfigurationError, match="robust"):
        config_from_dict(raw)


def test_unknown_experiment():
    raw = default_config_dict("saddle")
    raw["experiment"] = "nope"
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        config_from_dict(raw)


def test_rng_streams_deterministic_and_disjoint():
    a = rng_stream(7, "alpha").standard_normal(4)
    b = rng_stream(7, "alpha").standard_normal(4)
    c = rng_stream(7, "beta").standard_normal(4)
    d = rng_stream(8, "alpha").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _old_closed_noise(g, rng, amp):
    # the draws of the per-field generators the packed one replaced
    u = rng.standard_normal((g.nx + 1, g.ny))
    v = rng.standard_normal((g.nx, g.ny + 1))
    return VelocityField(g, u, v).apply_noslip() * amp


def _same_bits(traj, fields):
    return all(np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
               for a, b in zip(traj, fields, strict=True))


def test_noise_generator_keeps_the_old_draws():
    g = GridSpec(nx=16, ny=12, nt=8, T=1.0)
    r1, r2 = np.random.default_rng(5), np.random.default_rng(5)
    noise = closed_noise(g, r1, g.nt + 1, 0.3, first=1)
    ref = [VelocityField.zeros(g)] + [_old_closed_noise(g, r2, 0.3) for _ in range(g.nt)]
    assert _same_bits(Trajectory(g, noise), ref)
    assert r1.standard_normal() == r2.standard_normal()
    # the projection ignores normal faces, so closed noise gives the projected
    # samples of the unclosed draws
    r1, r2 = np.random.default_rng(6), np.random.default_rng(6)
    u, v = face_views(closed_noise(g, r1, 3), g)
    for a, b in zip(u, v):
        raw = VelocityField(g, r2.standard_normal((g.nx + 1, g.ny)),
                            r2.standard_normal((g.nx, g.ny + 1)))
        got = project_div_free(VelocityField(g, a, b))
        want = project_div_free(raw)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    # the harness data synthesis draws the same bits from its streams
    raw = default_config_dict("saddle")
    raw["data"] = {"y0_kind": "random", "y0_amplitude": 0.05,
                   "yd_amplitude": 0.05, "h_amplitude": 0.1}
    cfg = config_from_dict(raw)
    g, seed = cfg.grid, cfg.seed
    y0 = project_div_free(_old_closed_noise(g, rng_stream(seed, "y0"), 0.05))
    assert _same_bits([cfg.initial_state()], [y0])
    r = rng_stream(seed, "yd")
    assert _same_bits(cfg.target_trajectory(),
                      [_old_closed_noise(g, r, 0.05) for _ in range(g.nt + 1)])
    r = rng_stream(seed, "h")
    assert _same_bits(cfg.leader_trajectory(), [VelocityField.zeros(g)]
                      + [_old_closed_noise(g, r, 0.1) for _ in range(g.nt)])


def test_run_convergence_and_replay(tmp_path):
    raw = default_config_dict("convergence")
    raw["options"]["sizes"] = [16, 32]
    cfg = config_from_dict(raw)
    rec1 = run_experiment(cfg, out_root=tmp_path / "a")
    rec2 = run_experiment(cfg, out_root=tmp_path / "b")
    assert rec1.metrics == rec2.metrics  # bit-identical floats
    assert not rec1.incomplete
    man = json.loads((Path(rec1.run_dir) / "manifest.json").read_text())
    assert man["config_hash"] == cfg.config_hash()
    csv = (Path(rec1.run_dir) / "convergence.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash={cfg.config_hash()}"
    assert csv[1] == "nx,nt,error"


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stackstokes.cli", *args],
        capture_output=True, text=True,
    )


def test_cli_validate_ok(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config_dict("convergence")))
    out = _cli("validate", str(path))
    assert out.returncode == 0
    assert "config OK" in out.stdout


def test_cli_config_error_exit_code(tmp_path):
    raw = default_config_dict("saddle")
    raw["regions"]["O"] = raw["regions"]["omega"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = _cli("validate", str(path))
    assert out.returncode == 2
    assert "configuration error" in out.stderr
    out = _cli("run", str(path))
    assert out.returncode == 2


def test_cli_missing_config_file():
    out = _cli("validate", "/nonexistent/config.json")
    assert out.returncode == 2


# the keys that every manifest holds, before its metrics and artifacts
_MANIFEST_HEAD = (b'{"experiment": "x", "config_hash": "0", "started": "0", '
                  b'"finished": "0", "incomplete": false')


@pytest.mark.parametrize("command, content, expect", [
    ("validate", None, "cannot be read"),  # a directory named like a config
    ("validate", b"\xff\xfe{}", "is not valid JSON"),  # not UTF-8
    ("report", b"{", "is not valid JSON"),
    ("report", b'{"experiment": "x"}', "lacks the key 'config_hash'"),
    ("report", b"[]", "must hold a JSON object"),
    ("report", _MANIFEST_HEAD + b', "metrics": []}', "'metrics' as an object"),
    ("report", _MANIFEST_HEAD + b', "artifacts": 3}', "'artifacts' as a list"),
], ids=["directory", "not-utf8", "broken-manifest", "manifest-key", "manifest-list",
        "manifest-metrics-list", "manifest-artifacts-number"])
def test_cli_malformed_file_is_a_configuration_error(tmp_path, capsys, command, content, expect):
    # a file from outside the program ends in exit 2 and names the file, not
    # in a traceback
    from stackstokes.cli import main

    path = tmp_path / ("cfg.json" if command == "validate" else "manifest.json")
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([command, str(path if command == "validate" else tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(path) in err and expect in err, err


def test_cli_run_report_and_solver_failure(tmp_path):
    raw = default_config_dict("convergence")
    raw["options"]["sizes"] = [16, 32]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = _cli("run", str(path), "--out", str(tmp_path / "runs"))
    assert out.returncode == 0
    run_dir = [l for l in out.stdout.splitlines() if l.startswith("run dir")][0]
    run_dir = run_dir.split(":", 1)[1].strip()
    rep = _cli("report", run_dir)
    assert rep.returncode == 0 and "min_ratio" in rep.stdout

    # a CG starved of iterations is a solver failure: exit code 3
    raw = default_config_dict("nullcontrol")
    raw["penalty"]["epsilon_schedule"] = []
    raw["penalty"]["epsilon"] = 1e-6
    raw["penalty"]["cg_max"] = 1
    raw["penalty"]["cg_tol"] = 1e-12
    path2 = tmp_path / "stall.json"
    path2.write_text(json.dumps(raw))
    out = _cli("run", str(path2), "--out", str(tmp_path / "runs"))
    assert out.returncode == 3
    assert "solver failure" in out.stderr


def test_cli_init_writes_template(tmp_path):
    path = tmp_path / "t.json"
    out = _cli("init", "gamma0-scan", str(path))
    assert out.returncode == 0
    cfg = parse_config(path)
    assert cfg.experiment == "gamma0-scan"


def test_cli_init_to_an_unwritable_path_exits_2(tmp_path, capsys):
    # a path under a regular file cannot be written: exit 2 naming the path,
    # not a traceback
    from stackstokes.cli import main

    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "x.json"
    assert main(["init", "saddle", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(path) in err, err


def test_cli_run_to_an_unwritable_out_exits_2(tmp_path, capsys):
    from stackstokes.cli import main

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_config_dict("convergence")))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "runs"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(out) in err, err


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STACKSTOKES_OUT", str(tmp_path / "envroot"))
    raw = default_config_dict("convergence")
    raw["options"]["sizes"] = [16, 32]
    rec = run_experiment(config_from_dict(raw))
    assert str(tmp_path / "envroot") in rec.run_dir


def test_templates_are_the_shipped_experiments():
    # configs/ of the package holds one template per experiment and nothing
    # else, and each parses to its own experiment
    paths = sorted(TEMPLATES.glob("*.json"))
    assert {p.stem for p in paths} == set(EXPERIMENTS)
    for path in paths:
        assert parse_config(path).experiment == path.stem


def test_cli_init_writes_the_shipped_bytes(tmp_path, capsys):
    from stackstokes.cli import main

    for exp in EXPERIMENTS:
        path = tmp_path / f"{exp}.json"
        assert main(["init", exp, str(path)]) == 0, capsys.readouterr().err
        assert path.read_bytes() == (TEMPLATES / f"{exp}.json").read_bytes(), exp


def test_default_config_dict_is_a_new_dict():
    # tests edit nested entries of the template, which must not leak into the
    # next call
    raw = default_config_dict("convergence")
    raw["options"]["sizes"].append(128)
    raw["grid"]["nx"] = 8
    fresh = default_config_dict("convergence")
    assert fresh["options"]["sizes"] == [16, 32, 64] and fresh["grid"]["nx"] == 16


def test_default_config_dict_refuses_an_unknown_experiment():
    with pytest.raises(ConfigurationError, match="unknown experiment 'saddles'"):
        default_config_dict("saddles")


def test_root_configs_is_the_package_templates():
    # the README's commands and the yardstick scripts read ROOT/configs
    root = Path(__file__).resolve().parent.parent
    assert (root / "configs").resolve() == (root / "src" / "stackstokes" / "configs").resolve()


def test_saddle_experiment_zero_data_record(tmp_path):
    raw = default_config_dict("saddle")
    raw["data"] = {"y0_kind": "zero", "y0_amplitude": 0.0,
                   "yd_amplitude": 0.0, "h_amplitude": 0.0}
    raw["options"]["n_probes"] = 10
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    m = rec.metrics
    assert m["residual_psi"] == 0.0 and m["residual_v"] == 0.0
    assert m["cost"] == 0.0 and m["method_agreement_rel"] == 0.0
    assert m["probe_violations"] == 0


def test_failed_run_flagged_incomplete(tmp_path):
    raw = default_config_dict("nullcontrol")
    raw["penalty"]["epsilon_schedule"] = []
    raw["penalty"]["epsilon"] = 1e-6
    raw["penalty"]["cg_max"] = 1
    raw["penalty"]["cg_tol"] = 1e-12
    cfg = config_from_dict(raw)
    with pytest.raises(Exception):
        run_experiment(cfg, out_root=tmp_path)
    run_dir = next((tmp_path).glob("nullcontrol-*"))
    man = json.loads((run_dir / "manifest.json").read_text())
    assert man["incomplete"] is True


def test_failed_run_lists_the_files_it_wrote(tmp_path, monkeypatch):
    # each file is listed once it is written: a run that fails after writing
    # its weight table names that table in its manifest, and only that
    from stackstokes import harness

    def planted(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(harness, "check_weight_domination", planted)
    with pytest.raises(RuntimeError, match="planted failure"):
        run_experiment(config_from_dict(default_config_dict("carleman-check")), tmp_path)
    run_dir = next(tmp_path.glob("carleman-check-*"))
    man = json.loads((run_dir / "manifest.json").read_text())
    assert man["incomplete"] is True
    assert man["artifacts"] == [str(run_dir / "weight_table.csv")]
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "weight_table.csv"]


def _numeric_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return [line.split(",") for line in lines[2:]]


def test_csv_cells_are_plain_numbers(tmp_path):
    raw = default_config_dict("saddle")
    raw["options"]["n_probes"] = 10
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    rows = _numeric_rows(Path(rec.run_dir) / "probe_margins.csv")
    assert len(rows) == 10
    assert np.isfinite([[float(cell) for cell in row] for row in rows]).all()

    raw = default_config_dict("carleman-check")
    raw["options"]["n_observability_samples"] = 2
    raw["options"]["n_laplacian_samples"] = 2
    rec = run_experiment(config_from_dict(raw), out_root=tmp_path)
    rows = _numeric_rows(Path(rec.run_dir) / "observability_samples.csv")
    assert len(rows) == 2 + 4
    assert np.isfinite([[float(cell) for cell in row] for row in rows]).all()


def test_manifest_write_is_atomic(tmp_path, monkeypatch):
    from stackstokes import harness

    raw = default_config_dict("saddle")
    raw["data"] = {"y0_kind": "zero", "y0_amplitude": 0.0,
                   "yd_amplitude": 0.0, "h_amplitude": 0.0}
    raw["options"]["n_probes"] = 2
    cfg = config_from_dict(raw)
    run_dir = Path(run_experiment(cfg, out_root=tmp_path).run_dir)
    before = (run_dir / "manifest.json").read_text()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(harness.json, "dump", broken_dump)
    with pytest.raises(ConfigurationError, match="manifest.json cannot be written: disk full"):
        run_experiment(cfg, out_root=tmp_path)
    assert (run_dir / "manifest.json").read_text() == before
    assert sorted(p.name for p in run_dir.iterdir() if "manifest" in p.name) == ["manifest.json"]


def test_option_copies_keep_relax(monkeypatch):
    # the nonlinear coupled solve and the nonlinear pipeline's linear run
    # hand the configured options on unchanged, and every place that derives
    # solver options from configured ones keeps relax and changes only
    # convection_on
    from stackstokes import harness, leader, saddle, stokes

    from conftest import eddy, make_problem, make_setup

    class Seen(Exception):
        pass

    def capture(opts):
        assert opts.relax == 0.5
        raise Seen(opts.convection_on)

    setup = make_setup(nt=8)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 1e-3), None, relax=0.5, convection_on=True)

    monkeypatch.setattr(stokes, "_picard", lambda *a, **k: capture(a[4]))
    with pytest.raises(Seen, match="True"):
        stokes.solve_coupled_nonlinear(None, prob.y0, None, prob.coupling, prob.opts)

    monkeypatch.setattr(leader, "solve_coupled_nonlinear", lambda *a, **k: capture(a[4]))
    with pytest.raises(Seen, match="True"):
        leader.solve_null_control_nonlinear(prob, leader.PenaltyConfig())

    monkeypatch.setattr(saddle, "tracking_adjoint", lambda p, y: capture(p.opts))
    with pytest.raises(Seen, match="False"):
        saddle._estimate_tracking_lipschitz(prob, np.random.default_rng(0))

    raw = default_config_dict("nullcontrol-nonlinear")
    raw["solver"]["relax"] = 0.5
    cfg = config_from_dict(raw)
    monkeypatch.setattr(harness, "solve_null_control_nonlinear", lambda *a, **k: None)
    monkeypatch.setattr(harness, "solve_null_control_cg", lambda p, c: capture(p.opts))
    with pytest.raises(Seen, match="True"):
        harness._exp_nullcontrol_nonlinear(cfg, None)


@pytest.mark.parametrize("section, key, value, field", [
    ("grid", "nx", "sixteen", "grid.nx"),
    (None, "seed", None, "seed"),
    ("penalty", "epsilon_schedule", ["a"], "penalty.epsilon_schedule[0]"),
    ("solver", "small_data_delta", "1e-3", "solver.small_data_delta"),
    ("solver", "convection_on", 1, "solver.convection_on"),
    ("regions", "omega", [0.35, 0.75, "0.35", 0.75], "regions.omega[2]"),
    ("robust", "ell", [10.0], "robust.ell"),
    ("options", "n_probes", "ten", "options.n_probes"),
    ("data", "y0_amplitude", "big", "data.y0_amplitude"),
    ("options", "sizes", ["x"], "options.sizes[0]"),
    ("options", "sizes", [16], "options.sizes"),
    ("options", "sizes", [32, 16], "options.sizes"),
    ("options", "sizes", [4, 8], "options.sizes"),
    ("options", "gamma_grid", 0.5, "options.gamma_grid"),
    ("options", "gamma_grid", [0.5], "options.gamma_grid"),
    ("options", "gamma_grid", [0.5, -1.0], "options.gamma_grid"),
    ("options", "n_laplacian_samples", 0, "options.n_laplacian_samples"),
    ("options", "n_laplacian_samples", -2, "options.n_laplacian_samples"),
    ("options", "n_observability_samples", 0, "options.n_observability_samples"),
    ("options", "horizon", -0.25, "options.horizon"),
    ("options", "base_nt", 2, "options.base_nt"),
    ("options", "n_probes", 1, "options.n_probes"),
    ("options", "n_probes", 0, "options.n_probes"),
    ("options", "outer_tol", 0.0, "options.outer_tol"),
    ("options", "outer_max", 0, "options.outer_max"),
    ("options", "max_iter", 0, "options.max_iter"),
    ("options", "laplacian_s", -5.0, "options.laplacian_s"),
    ("options", "domination_epsilon", 0.0, "options.domination_epsilon"),
    ("options", "domination_lams", [], "options.domination_lams"),
    ("options", "domination_lams", [1.0, 0.0], "options.domination_lams"),
    ("data", "y0_kind", 3, "data.y0_kind"),
    # not a config field: M is the maximum of the eta profile, at any value
    ("carleman", "eta_norm", 0.5, "carleman.eta_norm"),
    ("carleman", "eta_norm", 1.0, "carleman.eta_norm"),
    # a key no section reads: a misspelling would leave its field at the default
    (None, "experimnt", "saddle", "experimnt"),
    ("grid", "NT", 32, "grid.NT"),
    ("regions", "omega_0", [2.76, 4.44, 2.76, 4.44], "regions.omega_0"),
    ("robust", "gama", 10.0, "robust.gama"),
    ("carleman", "lamda", 2.0, "carleman.lamda"),
    ("penalty", "eps", 1e-4, "penalty.eps"),
    ("solver", "picard_tool", 1e-11, "solver.picard_tool"),
    ("solver", "blowup_norm", 1e5, "solver.blowup_norm"),  # a module constant, not a config field
    ("data", "yd_amp", 0.05, "data.yd_amp"),
    ("options", "n_probe", 10, "options.n_probe"),
    ("data", "y0_kind", "edy", "data.y0_kind"),
    # a null required entry counts as absent, so it is missing
    ("grid", "nx", None, "grid.nx"),
    ("grid", "T", None, "grid.T"),
    ("robust", "gamma", None, "robust.gamma"),
    # nt = base_nt (nx / sizes[0])^2 would truncate for 24 / 16
    ("options", "sizes", [16, 24], "options.sizes"),
    # SmoothCutoff.for_grid refuses a taper that is not positive
    (None, "cutoff_taper_cells", 0.0, "cutoff_taper_cells"),
    (None, "cutoff_taper_cells", -1.0, "cutoff_taper_cells"),
    # JSON reads Infinity, and an infinite horizon makes the first step NaN
    ("options", "horizon", math.inf, "options.horizon"),
    ("options", "outer_tol", math.inf, "options.outer_tol"),
    ("options", "domination_epsilon", math.inf, "options.domination_epsilon"),
    ("options", "laplacian_s", math.inf, "options.laplacian_s"),
    # a negative seed fails numpy's seeding
    (None, "seed", -1, "seed"),
    # a weight whose square or inverse square overflows or underflows to 0
    ("robust", "gamma", 1e-300, "robust.gamma"),
    ("robust", "ell", 1e300, "robust.ell"),
    ("robust", "ell", math.inf, "robust.ell"),
    ("options", "gamma_grid", [0.5, 1e300], "options.gamma_grid"),
    ("options", "gamma_grid", [1e-300, 0.5], "options.gamma_grid"),
    # a relative tolerance of 1 or more accepts the starting iterate
    ("penalty", "cg_tol", math.inf, "penalty.cg_tol"),
    ("penalty", "cg_tol", 1.0, "penalty.cg_tol"),
    ("solver", "picard_tol", 1e300, "solver.picard_tol"),
    ("solver", "picard_tol", 1.0, "solver.picard_tol"),
    # an infinite weight parameter makes the weights and their norms inf or NaN
    ("carleman", "lam", math.inf, "carleman.lam"),
    ("options", "domination_lams", [1.0, math.inf], "options.domination_lams"),
    # a JSON integer beyond the range of a double: casting it raised OverflowError
    pytest.param("grid", "T", 10**400, "grid.T", id="grid-T-10**400-grid.T"),
    # data.y0_v_norm cannot rescale a zero initial state; run refused it
    ("data", "y0_amplitude", 0.0, "data.y0_amplitude"),
    ("data", "y0_kind", "zero", "data.y0_kind"),
    # a coarse step horizon / base_nt above 0.625 moves the convergence ratios
    # away from 4 (base_nt is 32 here); 300 gave a ratio of 2.9e46
    ("options", "horizon", 300.0, "options.horizon"),
    ("options", "horizon", 40.0, "options.horizon"),
    # a norm target below 0 flipped the sign of the start, and 0 zeroed it
    ("data", "y0_v_norm", -1.0, "data.y0_v_norm"),
    ("data", "y0_v_norm", 0.0, "data.y0_v_norm"),
    # the outer loop warm-starts the CG, which takes a single epsilon then
    ("penalty", "epsilon_schedule", [1e-3, 1e-4], "penalty.epsilon_schedule"),
    # the finest level's nt = base_nt (sizes[-1] / sizes[0])^2 above 65536:
    # 32 * 128^2 = 524288, and 65536 * 2^2 = 262144
    ("options", "sizes", [16, 2048], "options.sizes"),
    (None, "options", {"sizes": [8, 16], "base_nt": 65536}, "options.sizes"),
    # a run solves at and reports the schedule's last epsilon: a schedule
    # that ends away from penalty.epsilon (1e-4 here) left that field unread;
    # PenaltyConfig refuses it, so the refusal names its section
    ("penalty", "epsilon_schedule", [1e-3], "penalty"),
    # a box outside the 6 x 6 domain has no face: its channel was switched off
    ("regions", "O", [7.0, 8.0, 7.0, 8.0], "regions.O"),
    # a value that its section's dataclass or Region refuses names the section
    # or the region
    ("grid", "nx", 4, "grid"),
    ("grid", "T", -1.0, "grid"),
    ("grid", "Lx", -1.0, "grid"),
    ("penalty", "cg_max", 0, "penalty"),
    ("penalty", "epsilon", -1.0, "penalty"),
    ("solver", "relax", 2.0, "solver"),
    ("solver", "picard_max", 0, "solver"),
    ("solver", "picard_tol", -1e-3, "solver"),
    ("robust", "mu", -1.0, "robust"),
    ("carleman", "lam", -1.0, "carleman"),
    ("carleman", "a0", 1.0, "carleman"),
    ("regions", "omega", [0.75, 0.35, 0.35, 0.75], "regions.omega"),
    # a start whose H1 norm overflows to inf was rescaled by y0_v_norm / inf
    # into the zero field, and the run steered that
    ("data", "y0_amplitude", 1e300, "data.y0_v_norm"),
])
def test_config_value_errors_exit_2(tmp_path, capsys, section, key, value, field):
    from stackstokes.cli import main

    raw = default_config_dict("nullcontrol-nonlinear")
    (raw if section is None else raw[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_a_schedule_out_of_order_names_its_section(tmp_path, capsys):
    # the template of the table above refuses a schedule of two entries
    # before PenaltyConfig reads its order, so this case runs on nullcontrol's
    from stackstokes.cli import main

    raw = default_config_dict("nullcontrol")
    raw["penalty"]["epsilon_schedule"] = [1e-4, 1e-3, 1e-5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "config section 'penalty': epsilon schedule must be strictly decreasing" in (
        capsys.readouterr().err)


def _number_slots(obj, field=""):
    """(container, key, field) of every number in a config object; the field of
    a list entry, such as a region corner, is the list's."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        path = field if isinstance(obj, list) else f"{field}.{key}" if field else key
        if isinstance(value, (dict, list)):
            yield from _number_slots(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield obj, key, path


def test_validate_refuses_non_finite_numbers_and_huge_integers(tmp_path, capsys):
    # JSON has no Infinity or NaN, so validate refuses them in every numeric
    # field of every template, naming the field; every integer field is
    # bounded above, so 1e300 there is refused too.  The saddle template also
    # carries the fields that no template sets.
    from stackstokes.cli import main
    from stackstokes.harness import _FIELDS

    path = tmp_path / "walk.json"
    walked = set()
    for experiment in EXPERIMENTS:
        raw = default_config_dict(experiment)
        if experiment == "saddle":
            raw["options"] = {"n_probes": 100, "outer_tol": 1e-6, "outer_max": 25}
            raw["solver"]["small_data_delta"] = 1e-3
        for obj, key, field in list(_number_slots(raw)):
            good = obj[key]
            for value in [math.inf, -math.inf, math.nan] + [1e300] * isinstance(good, int):
                obj[key] = value
                path.write_text(json.dumps(raw))
                assert main(["validate", str(path)]) == 2, (experiment, field, value)
                assert f"'{field}'" in capsys.readouterr().err, (experiment, field, value)
            obj[key] = good
            walked.add(field)
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err
    numeric = {p for p, (kind, *_) in _FIELDS.items() if kind in (int, float, [int], [float])}
    assert walked == numeric


def test_refused_runs_exit_2_or_3(tmp_path, capsys):
    from stackstokes.cli import main

    path, out = tmp_path / "cfg.json", str(tmp_path / "runs")
    # an infinite horizon made the carleman weights' first time NaN (an untyped PoleError)
    raw = default_config_dict("carleman-check")
    raw["grid"]["T"] = math.inf
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", out]) == 2
    assert "'grid.T'" in capsys.readouterr().err
    # the coarse step of this horizon is far above 0.625, so validate refuses it
    raw = default_config_dict("convergence")
    raw["options"].update(sizes=[8, 16], horizon=1e300)
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", out]) == 2
    assert "'options.horizon'" in capsys.readouterr().err
    # past validation, every error of the study underflows to 0: no ratio exists
    raw["options"]["horizon"] = 0.25
    cfg = config_from_dict(raw)
    cfg.options["horizon"] = 1e300
    with pytest.raises(NumericalError, match="underflows to 0"):
        run_experiment(cfg, out_root=out)


def test_validate_refuses_a_domination_epsilon_the_run_refuses(tmp_path, capsys):
    # check_weight_domination needs (1 + eps) * alpha_ratio(lam) > 1, that is
    # eps > e^-lam, for every lam; the run refused the config after validate
    # accepted it
    from stackstokes.cli import main

    path = tmp_path / "cfg.json"
    for eps, lams in ((0.1, [1.0, 2.0, 4.0]), (1.0, [1.0, 1e-300])):
        raw = default_config_dict("carleman-check")
        raw["options"].update(domination_epsilon=eps, domination_lams=lams)
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'options.domination_epsilon'" in err and "'options.domination_lams'" in err
        raw["experiment"] = "saddle"  # no other experiment reads the options
        assert config_from_dict(raw).options["domination_epsilon"] == eps
    # a coarse step of exactly 0.625 is the longest the convergence study takes
    raw = default_config_dict("convergence")
    raw["options"].update(horizon=20.0, base_nt=32)
    assert config_from_dict(raw).options["horizon"] == 20.0
    raw["options"]["horizon"] = 20.000001
    with pytest.raises(ConfigurationError, match="'options.horizon'"):
        config_from_dict(raw)


@pytest.mark.parametrize("experiment, changes, field, text", [
    # check_laplacian_weight_bound's appendix regime; CarlemanParams takes
    # a0 = 1.5, m0 = 2.8, and the run refused it after writing three tables
    ("carleman-check", {"carleman": {"a0": 1.5, "m0": 2.8}}, "carleman.a0",
     "appendix regime needs a0 >= 2"),
    # solve_coupled_nonlinear's small-data bound, below the start's H1 norm 1e-3;
    # the run refused it after its linear CG
    ("nullcontrol-nonlinear", {"solver": {"small_data_delta": 1e-6}},
     "solver.small_data_delta", "small-data bound"),
    # the saddle run solves the nonlinear coupled system when convection is on;
    # its start's H1 norm is 2.69
    ("saddle", {"solver": {"convection_on": True, "small_data_delta": 1.0}},
     "solver.small_data_delta", "small-data bound"),
    # a start of amplitude 1e-300 has an H1 norm of 0, so it cannot be rescaled
    ("nullcontrol-nonlinear", {"data": {"y0_amplitude": 1e-300}}, "data.y0_v_norm",
     "cannot rescale a zero initial state"),
], ids=["appendix-regime", "small-data", "saddle-small-data", "zero-start"])
def test_validate_refuses_what_run_refuses(tmp_path, capsys, experiment, changes, field, text):
    # validate calls the precondition that the run calls, so both refuse the
    # config with the same text, and the run before it writes anything
    from stackstokes.cli import main

    raw = default_config_dict(experiment)
    for section, entries in changes.items():
        raw[section].update(entries)
    path, out = tmp_path / "cfg.json", tmp_path / "runs"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}': " in err and text in err, err
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_the_small_data_bound_is_checked_where_the_run_applies_it():
    from stackstokes.grid import h1_norm

    raw = default_config_dict("saddle")
    bound = h1_norm(config_from_dict(raw).initial_state())
    raw["solver"].update(convection_on=True, small_data_delta=bound)
    config_from_dict(raw)  # a bound at the start's norm holds
    raw["solver"]["small_data_delta"] = bound * (1 - 1e-12)
    with pytest.raises(ConfigurationError, match="'solver.small_data_delta'"):
        config_from_dict(raw)
    # a saddle run without convection and a nullcontrol run solve only the
    # linear system, so they never apply the bound
    raw["solver"]["convection_on"] = False
    config_from_dict(raw)
    raw["experiment"], raw["solver"]["convection_on"] = "nullcontrol", True
    config_from_dict(raw)


@pytest.mark.parametrize("name", ["convergence.csv", "manifest.json"])
def test_run_names_an_output_file_it_cannot_write(tmp_path, capsys, name):
    # a directory where the run writes a file ended in an IsADirectoryError
    # traceback with exit 1
    from stackstokes.cli import main

    raw = default_config_dict("convergence")
    raw["options"]["sizes"] = [16, 32]
    path, out = tmp_path / "cfg.json", tmp_path / "runs"
    path.write_text(json.dumps(raw))
    run_dir = out / f"convergence-{config_from_dict(raw).config_hash()[:12]}"
    (run_dir / name).mkdir(parents=True)
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"{run_dir / name} cannot be written" in err
    assert not list(run_dir.glob(".*"))  # no temporary manifest is left behind


# The accepted cases of the float walk that their run refuses: none, since
# validate calls each precondition that a run checks
_RUN_REFUSES = set()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_walk_ends_refused_finite_or_typed(tmp_path, capsys):
    # every float field of every template, list entries and region corners
    # included, at 0, -1, 1e300 and 1e-300 through validate, on the 8x8,
    # nt = 8 copy that the accepted cases run on.  One accepted case per field
    # runs, its experiment and value taken in turn, so that every experiment
    # runs; each run ends in exit 0 with finite metrics or in exit 3.  An
    # accepted start that data.y0_v_norm rescales has that H1 norm.
    from stackstokes.cli import main
    from stackstokes.grid import h1_norm
    from stackstokes.harness import _FIELDS, _finite

    values = (0.0, -1.0, 1e300, 1e-300)
    floats = {p for p, (kind, *_) in _FIELDS.items() if kind in (float, [float])}
    path, walked, accepted = tmp_path / "walk.json", set(), {}
    for experiment in EXPERIMENTS:
        raw = default_config_dict(experiment)
        raw["grid"].update(nx=8, ny=8, nt=8)
        if experiment == "convergence":
            raw["options"].update(sizes=[8, 16], base_nt=8)
        if experiment == "saddle":  # the fields that no template sets
            raw["options"] = {"n_probes": 100, "outer_tol": 1e-6, "outer_max": 25}
            raw["solver"]["small_data_delta"] = 1e-3
        for obj, key, field in list(_number_slots(raw)):
            if field not in floats:
                continue
            good = obj[key]
            for value in values:
                obj[key] = value
                text = json.dumps(raw)
                path.write_text(text)
                code = main(["validate", str(path)])
                capsys.readouterr()
                assert code in (0, 2), (experiment, field, value)
                if code == 0:
                    accepted.setdefault(field, {}).setdefault((experiment, value), text)
                    if "y0_v_norm" in raw["data"]:
                        want = raw["data"]["y0_v_norm"]
                        got = h1_norm(config_from_dict(raw).initial_state())
                        assert got == pytest.approx(want, rel=1e-12), (experiment, field, value)
            obj[key] = good
            walked.add(field)
    assert walked == floats
    picks = set(_RUN_REFUSES)
    for j, (field, cases) in enumerate(accepted.items()):
        # the j-th field runs in the j-th experiment and with the j-th value, in
        # turn, or in the next that validate accepts
        picks.add(min((((EXPERIMENTS.index(e) - j) % len(EXPERIMENTS),
                        (values.index(v) - j) % len(values)), (e, field, v))
                      for e, v in cases)[1])
    assert {e for e, _, _ in picks} == set(EXPERIMENTS)
    for i, (experiment, field, value) in enumerate(sorted(picks)):
        path.write_text(accepted[field][experiment, value])
        code = main(["run", str(path), "--out", str(tmp_path / "runs" / str(i))])
        case = (experiment, field, value, capsys.readouterr().err)
        assert code == 2 if case[:3] in _RUN_REFUSES else code in (0, 3), case
        if code == 0:
            (manifest,) = (tmp_path / "runs" / str(i)).rglob("manifest.json")
            assert _finite(json.loads(manifest.read_text())["metrics"]), case


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_carleman_check_on_extreme_horizons_ends_finite_or_typed(tmp_path, capsys):
    # a horizon of 1e300 or 1e-300 is a finite double, so validate accepts
    # it; the run then reports finite metrics, or fails with a typed exit.
    # A zero power of an infinite log weight was 0 * inf = NaN, and the run
    # exited 0 with NaN domination ratios.
    from stackstokes.cli import main

    path, out = tmp_path / "cfg.json", tmp_path / "runs"
    raw = default_config_dict("carleman-check")
    raw["grid"].update(nx=8, ny=8, nt=8)
    raw["options"].update(n_laplacian_samples=2, n_observability_samples=2)
    for T in (1e300, 1e-300):
        raw["grid"]["T"] = T
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(out / str(T))])
        capsys.readouterr()
        assert code in (0, 2, 3), (T, code)
        if code == 0:
            (manifest,) = (out / str(T)).rglob("manifest.json")
            metrics = json.loads(manifest.read_text())["metrics"]
            numbers = [v for v in metrics.values() if isinstance(v, float)]
            numbers += list(metrics["domination_log_ratios"].values())
            assert all(math.isfinite(v) for v in numbers), (T, metrics)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_metrics_are_refused(tmp_path, capsys):
    # zero data make every terminal and control norm of the epsilon sweep 0,
    # so its log-log slope and control growth ratio are NaN; the run wrote
    # them with exit 0
    from stackstokes.cli import main

    path, out = tmp_path / "cfg.json", tmp_path / "runs"
    raw = default_config_dict("nullcontrol")
    raw["grid"].update(nx=8, ny=8, nt=8)
    raw["data"]["y0_kind"] = "zero"
    raw["penalty"].update(epsilon=1e-3, epsilon_schedule=[1e-2, 1e-3])
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(out / "two")]) == 3
    err = capsys.readouterr().err
    assert "loglog_slope" in err and "max_control_growth_ratio" in err
    (manifest,) = (out / "two").rglob("manifest.json")
    manifest = json.loads(manifest.read_text())
    assert manifest["incomplete"] is True and manifest["metrics"] == {}
    # one epsilon fits no slope; the weighted norms of the zero solution are
    # log10(0) = -inf, the one non-finite value a metric may hold
    raw["penalty"]["epsilon_schedule"] = []
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(out / "one")]) == 0, capsys.readouterr().err
    (manifest,) = (out / "one").rglob("manifest.json")
    norms = json.loads(manifest.read_text())["metrics"]["weighted_norm_log10"]
    assert norms and all(v == -math.inf for v in norms.values()), norms


def test_convergence_refuses_convection(tmp_path, capsys):
    # the manufactured forcing of the convergence study is Stokes-only
    from stackstokes.cli import main

    raw = default_config_dict("convergence")
    raw["solver"]["convection_on"] = True
    path = tmp_path / "convective.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "'solver.convection_on'" in capsys.readouterr().err
    raw["solver"]["convection_on"] = False
    assert not config_from_dict(raw).solver.convection_on


def test_shipped_inputs_validate(capsys):
    # the checks on config keys and geometry accept every input the program
    # and its benchmark ship with
    from stackstokes.cli import main

    root = Path(__file__).resolve().parent.parent
    configs = sorted((root / "configs").glob("*.json"))
    assert configs
    for path in configs:
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err
    builders = runpy.run_path(str(root / "perfbench" / "workloads.py"))["BUILDERS"]
    assert builders
    for build in builders.values():
        config_from_dict(build(20240))


def test_absent_options_take_their_defaults():
    raw = default_config_dict("saddle")
    raw["options"] = {"horizon": None}  # null counts as absent
    cfg = config_from_dict(raw)
    assert cfg.options["n_probes"] == 100 and cfg.options["horizon"] == 0.25
    assert cfg.options["gamma_grid"] == np.geomspace(0.05, 50.0, 13).tolist()
    cfg.options["sizes"].append(128)  # every config gets its own lists
    assert config_from_dict(raw).options["sizes"] == [16, 32, 64]


def test_absent_keys_take_the_dataclass_defaults():
    # a config without the penalty and solver keys, or the optional carleman
    # ones, builds the same objects as the dataclasses' own defaults
    raw = default_config_dict("saddle")
    raw["penalty"], raw["solver"] = {}, {}
    raw["carleman"] = {"lam": 2.0, "s": 3.0}
    cfg = config_from_dict(raw)
    assert cfg.penalty == PenaltyConfig()
    assert cfg.solver == SolverOptions()
    assert cfg.carleman == CarlemanParams(lam=2.0, s=3.0)


def test_null_optional_entries_take_their_defaults():
    # in every section, and at the top level, a null optional entry counts as absent
    raw = default_config_dict("saddle")
    raw["grid"]["Lx"] = raw["grid"]["Ly"] = raw["robust"]["mu"] = None
    raw["cutoff_taper_cells"] = raw["penalty"]["cg_max"] = raw["carleman"]["a0"] = None
    cfg = config_from_dict(raw)
    assert (cfg.grid.Lx, cfg.grid.Ly) == (GridSpec.Lx, GridSpec.Ly)
    assert cfg.robust.mu == RobustParams.mu and cfg.cutoff_taper_cells == 4.0
    assert cfg.penalty.cg_max == PenaltyConfig.cg_max
    assert cfg.carleman.a0 == CarlemanParams(lam=2.0, s=3.0).a0


def test_config_numbers_are_cast():
    raw = default_config_dict("nullcontrol-nonlinear")
    raw["solver"]["small_data_delta"] = 1
    raw["grid"]["nt"] = 32.0
    raw["penalty"].update(epsilon=1, epsilon_schedule=[1])
    raw["options"]["sizes"] = [16.0, 32]
    raw["data"]["y0_v_norm"] = None
    cfg = config_from_dict(raw)
    assert type(cfg.solver.small_data_delta) is float and cfg.solver.small_data_delta == 1.0
    assert type(cfg.grid.nt) is int and cfg.grid.nt == 32
    assert cfg.penalty.epsilon_schedule == (1.0,)
    assert [type(n) for n in cfg.options["sizes"]] == [int, int]
    assert "y0_v_norm" not in cfg.data  # null means absent: no rescaling
    raw["grid"]["nt"] = 32.5
    with pytest.raises(ConfigurationError, match="grid.nt"):
        config_from_dict(raw)


def test_nullcontrol_solves_each_coupled_system_once(tmp_path, monkeypatch):
    # the pipeline reads the CG's free solve and its exact re-solve of the
    # last epsilon: one coupled solve per CG iteration of the whole schedule,
    # the free solve and one exact re-solve per epsilon, and no second copy
    from stackstokes import harness, leader
    from stackstokes.grid import norm
    from stackstokes.leader import control_to_terminal

    real = leader.solve_coupled_linear
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(leader, "solve_coupled_linear", counted)
    monkeypatch.setattr(harness, "solve_coupled_linear", counted, raising=False)
    raw = default_config_dict("nullcontrol")
    raw["penalty"].update(epsilon=0.3, epsilon_schedule=[1.0, 0.3])
    cfg = config_from_dict(raw)
    m = run_experiment(cfg, out_root=tmp_path).metrics
    assert len(calls) == m["cg_iters"] + len(raw["penalty"]["epsilon_schedule"]) + 1
    monkeypatch.undo()
    # the free terminal norm is the one a separate uncontrolled solve gives
    assert m["uncontrolled_terminal_norm"] == norm(control_to_terminal(cfg.problem(), None))
