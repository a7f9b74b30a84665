import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stackstokes.errors import ConfigurationError, GeometryError
from stackstokes.harness import (
    config_from_dict,
    default_config_dict,
    parse_config,
    rng_stream,
    run_experiment,
)


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


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STACKSTOKES_OUT", str(tmp_path / "envroot"))
    raw = default_config_dict("convergence")
    raw["options"]["sizes"] = [16, 32]
    rec = run_experiment(config_from_dict(raw))
    assert str(tmp_path / "envroot") in rec.run_dir


def test_shipped_configs_match_templates():
    configs_dir = Path(__file__).resolve().parent.parent / "configs"
    assert configs_dir.is_dir()
    for exp in ("saddle", "nullcontrol", "nullcontrol-nonlinear",
                "carleman-check", "gamma0-scan", "convergence"):
        path = configs_dir / f"{exp}.json"
        cfg = parse_config(path)
        assert cfg.experiment == exp
        want = config_from_dict(default_config_dict(exp))
        assert cfg.config_hash() == want.config_hash()


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
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, out_root=tmp_path)
    assert (run_dir / "manifest.json").read_text() == before
    assert sorted(p.name for p in run_dir.iterdir() if "manifest" in p.name) == ["manifest.json"]


def test_option_copies_keep_relax(monkeypatch):
    # every place that derives solver options from configured ones keeps
    # relax and blowup_norm and changes only convection_on
    from stackstokes import harness, leader, saddle, stokes

    from conftest import eddy, make_problem, make_setup

    class Seen(Exception):
        pass

    def capture(opts):
        assert opts.relax == 0.5 and opts.blowup_norm == 1e5
        raise Seen(opts.convection_on)

    setup = make_setup(nt=8)
    g = setup["grid"]
    prob = make_problem(setup, eddy(g, 1e-3), None, relax=0.5, blowup_norm=1e5,
                        convection_on=True)

    monkeypatch.setattr(stokes, "solve_coupled_linear", lambda *a, **k: capture(a[4]))
    with pytest.raises(Seen, match="False"):
        stokes.solve_coupled_nonlinear(None, prob.y0, None, prob.coupling, prob.opts)

    monkeypatch.setattr(leader, "solve_coupled_nonlinear", lambda *a, **k: capture(a[4]))
    with pytest.raises(Seen, match="True"):
        leader.solve_null_control_nonlinear(prob, leader.PenaltyConfig())

    monkeypatch.setattr(saddle, "tracking_adjoint", lambda p, y: capture(p.opts))
    with pytest.raises(Seen, match="False"):
        saddle._estimate_tracking_lipschitz(prob, n_steps=1)

    raw = default_config_dict("nullcontrol-nonlinear")
    raw["solver"]["relax"] = 0.5
    cfg = config_from_dict(raw)
    monkeypatch.setattr(cfg, "solver", dataclasses.replace(cfg.solver, blowup_norm=1e5))
    monkeypatch.setattr(harness, "solve_null_control_nonlinear", lambda *a, **k: None)
    monkeypatch.setattr(harness, "solve_null_control_cg", lambda p, c: capture(p.opts))
    with pytest.raises(Seen, match="False"):
        harness._exp_nullcontrol_nonlinear(cfg, None, "")
