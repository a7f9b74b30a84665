"""Fast tests of the benchmark itself: its checks, tracer and counters.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The pipelines are shrunk to 8x8 grids here; the checks are the same code.
"""

from __future__ import annotations

import sys

import pytest

import checks
import run
import spans
import workloads
from stackstokes import fieldio, harness, stokes

SEED = 5


def small_config(pipeline: str, seed: int = SEED) -> dict:
    raw = workloads.BUILDERS[pipeline](seed)
    if pipeline == "mms-forward":
        raw["options"].update(sizes=[8, 16, 32], base_nt=8)
        return raw
    raw["grid"].update(nx=8, ny=8, nt=16 if pipeline == "observability" else 8)
    if pipeline == "nullcontrol-cg":
        raw["penalty"].update(epsilon_schedule=[1.0, 0.1], epsilon=0.1)
    elif pipeline == "saddle-probe":
        raw["options"]["n_probes"] = 5
    elif pipeline == "observability":
        raw["options"].update(n_observability_samples=1, n_laplacian_samples=2)
    return raw


class Run:
    """One run of a shrunk pipeline, kept for several checks."""

    def __init__(self, pipeline, out_root):
        self.cfg = harness.config_from_dict(small_config(pipeline))
        self.record = harness.run_experiment(self.cfg, out_root)
        self.dir = self.record.run_dir

    def check(self) -> dict:
        rows = checks.check(self.cfg, self.record, self.dir, SEED)
        return {name: ok for name, ok, _ in rows}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    return {w: Run(w, root / w) for w in workloads.BUILDERS}


def _rewrite_fields(run, name, transform):
    g = run.cfg.grid
    fields = f"{run.dir}/fields"
    traj = fieldio.read_trajectory(fields, name, g)
    fieldio.write_trajectory(fields, name, transform(traj))
    return lambda: fieldio.write_trajectory(fields, name, traj)


def _rewrite_csv(path, column, transform):
    with open(path) as fh:
        original = fh.read()
    lines = original.splitlines()
    header = lines[1].split(",")
    k = header.index(column)
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        cells[k] = transform(i - 2, cells[k])
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    def restore():
        with open(path, "w") as fh:
            fh.write(original)
    return restore


@pytest.fixture
def flipped_adjoint(monkeypatch):
    """A solve_backward_adjoint whose phi comes back with the wrong sign."""
    original = stokes.solve_backward_adjoint

    def flipped(*args, **kwargs):
        pair = original(*args, **kwargs)
        pair.phi = pair.phi * -1.0
        return pair

    monkeypatch.setattr(stokes, "solve_backward_adjoint", flipped)


@pytest.mark.parametrize("pipeline", list(workloads.BUILDERS))
def test_checks_pass_on_untouched_output(runs, pipeline):
    result = runs[pipeline].check()
    assert all(result.values()), result


def test_nullcontrol_residual_sees_scaled_h(runs):
    run_ = runs["nullcontrol-cg"]
    restore = _rewrite_fields(run_, "h", lambda h: h * 1.01)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["nullcontrol.normal_equation_residual"]
    assert not result["nullcontrol.reported_terminal_norm"]


def test_nullcontrol_duality_sees_flipped_adjoint(runs, flipped_adjoint):
    result = runs["nullcontrol-cg"].check()
    assert not result["nullcontrol.duality"]


def test_nullcontrol_sees_terminal_norm_growing(runs):
    run_ = runs["nullcontrol-cg"]
    restore = _rewrite_csv(f"{run_.dir}/epsilon_sweep.csv", "terminal_norm",
                           lambda i, x: repr(float(x) * (1.0 + 10.0 * i)))
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["nullcontrol.terminal_decreasing"]


def test_nullcontrol_sees_control_that_does_not_steer(runs):
    run_ = runs["nullcontrol-cg"]
    restore = _rewrite_fields(run_, "h", lambda h: h * -1.0)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["nullcontrol.below_uncontrolled"]


def test_saddle_identity_sees_shifted_candidate(runs):
    run_ = runs["saddle-probe"]
    restore = _rewrite_fields(run_, "psi_bar", lambda psi: psi * 1.01)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["saddle.quadratic_identity"]


def test_saddle_inequalities_see_a_maximum_in_v(runs, monkeypatch):
    # with the sign of the quadratic terms flipped the candidate is a maximum
    # in v and a minimum in psi, so every probe violates an inequality
    original = checks.robust_cost
    monkeypatch.setattr(checks, "robust_cost", lambda *a: -original(*a))
    result = runs["saddle-probe"].check()
    assert not result["saddle.inequalities"]


def test_saddle_sees_pipeline_probe_violations(runs, monkeypatch):
    run_ = runs["saddle-probe"]
    monkeypatch.setitem(run_.record.metrics, "probe_violations", 1)
    assert not run_.check()["saddle.pipeline_probes"]


def test_observability_sees_nonpositive_ratio(runs):
    run_ = runs["observability"]
    restore = _rewrite_csv(f"{run_.dir}/observability_samples.csv", "ratio",
                           lambda i, x: "-1.0" if i == 0 else x)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["observability.ratios_finite_positive"]


def test_observability_duality_sees_flipped_adjoint(runs, flipped_adjoint):
    assert not runs["observability"].check()["observability.duality"]


def test_mms_sees_wrong_order(runs):
    run_ = runs["mms-forward"]
    restore = _rewrite_csv(f"{run_.dir}/convergence.csv", "error",
                           lambda i, x: repr(float(x) * 2.0) if i == 2 else x)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["mms.error_ratios"]
    assert result["mms.coarse_error_recomputed"]


def test_mms_sees_misreported_error(runs):
    run_ = runs["mms-forward"]
    restore = _rewrite_csv(f"{run_.dir}/convergence.csv", "error",
                           lambda i, x: repr(float(x) * (1.0 + 1e-6)) if i == 0 else x)
    try:
        result = run_.check()
    finally:
        restore()
    assert not result["mms.coarse_error_recomputed"]


def _namespaces():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "stackstokes" or name.startswith("stackstokes."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    out[("ExperimentConfig", "problem")] = harness.ExperimentConfig.problem
    return out


def test_tracer_restores_every_function():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            assert stokes.solve_forward is not before[("stackstokes.stokes", "solve_forward")]
            assert harness.ExperimentConfig.problem is not before[("ExperimentConfig", "problem")]
            raise RuntimeError("leave the block by an exception")
    assert tracer._patches == []
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_synthetic_tree():
    #  root 0..10 with children a 1..4 (child g 2..3), b 3..6 overlapping a,
    #  and c 8..12 running past the root's end
    tree = [
        ["root", -1, 0.0, 10.0, 0],
        ["a", 0, 1.0, 4.0, 0],
        ["g", 1, 2.0, 3.0, 0],
        ["b", 0, 3.0, 6.0, 0],
        ["c", 0, 8.0, 12.0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_derived_counts():
    tree = [
        ["carleman.observability_ratio", -1, 0.0, 10.0, 0],
        ["stokes.solve_backward_adjoint", 0, 1.0, 5.0, 7],
        ["grid.diffusion_solve", 1, 2.0, 3.0, 0],
        ["grid.project_div_free", 1, 3.0, 4.0, 0],
        ["stokes.solve_backward_adjoint", -1, 11.0, 12.0, 3],
        ["grid.diffusion_solve", 4, 11.0, 11.5, 0],
    ]
    m = spans.layer_metrics(tree)
    assert m["carleman.adjoint_pairs"] == 1
    assert m["stokes.solve_backward_adjoint.picard_sweeps"] == 10
    assert m["grid.transforms"] == 8 * 2 + 2 * 1
    assert m["grid.project_div_free.self_s"] == pytest.approx(1.0)
    assert m["grid.step_us"] == pytest.approx(1e6 * (4.0 + 1.0) / 2)
    assert set(m) == {name for name, _ in spans.PER_LAYER}


def test_counters_repeat_between_runs_of_one_seed(tmp_path):
    raw = small_config("nullcontrol-cg")
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        run.run_round([raw], SEED, str(tmp_path), tracer)
        m = spans.layer_metrics(tracer.spans)
        counts.append({k: m[k] for k in spans.COUNT_METRICS})
    assert counts[0] == counts[1]
    for key in ("leader.cg_iters", "stokes.solve_coupled_linear.calls",
                "stokes.solve_coupled_linear.picard_sweeps",
                "stokes.solve_backward_adjoint.picard_sweeps",
                "grid.diffusion_solve.calls", "fieldio.bytes_written"):
        assert counts[0][key] > 0, key
