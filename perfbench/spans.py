"""In-memory span tracing around calls into the program's public functions.

The tracer lives entirely in the benchmark: it replaces each traced function
by a wrapper in every ``stackstokes`` module namespace that holds it, records
one span per call (name, parent, start, end, and a count read from the
result), and puts the originals back on exit.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _iterations(out, args, kwargs):
    return out.iterations


def _cg_iters(out, args, kwargs):
    return out.cg_iters


def _trajectory_bytes(out, args, kwargs):
    # SGF1 file: 13-byte header, then u and v faces as float64
    traj = args[2] if len(args) > 2 else kwargs["traj"]
    g = traj.grid
    return len(traj) * (13 + 8 * ((g.nx + 1) * g.ny + g.nx * (g.ny + 1)))


PACKAGE = "stackstokes"

# (module, attribute, span name, reader of a count from the call's result)
TARGETS = (
    ("grid", "diffusion_solve", "grid.diffusion_solve", None),
    # project_div_free is a thin entry point to this one; one span per projection
    ("grid", "project_div_free_with_potential", "grid.project_div_free", None),
    ("grid", "inner_space_time", "grid.inner_space_time", None),
    ("stokes", "solve_forward", "stokes.solve_forward", None),
    ("stokes", "solve_coupled_linear", "stokes.solve_coupled_linear", _iterations),
    ("stokes", "solve_backward_adjoint", "stokes.solve_backward_adjoint", _iterations),
    ("leader", "solve_null_control_cg", "leader.solve_null_control_cg", _cg_iters),
    ("leader", "control_to_terminal", "leader.control_to_terminal", None),
    ("saddle", "robust_cost", "saddle.robust_cost", None),
    ("saddle", "saddle_from_coupled", "saddle.saddle_from_coupled", None),
    ("saddle", "saddle_ascent_descent", "saddle.saddle_ascent_descent", _iterations),
    ("saddle", "verify_saddle", "saddle.verify_saddle", None),
    ("carleman", "observability_ratio", "carleman.observability_ratio", None),
    ("harness", "config_from_dict", "harness.config_from_dict", None),
    ("harness", "ExperimentConfig.problem", "harness.problem", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("fieldio", "write_trajectory", "fieldio.write_trajectory", _trajectory_bytes),
)

STOKES_SOLVES = ("stokes.solve_forward", "stokes.solve_coupled_linear",
                 "stokes.solve_backward_adjoint")

# 8 real transforms per diffusion solve (dst/idst along both axes for u and
# v) and 2 per projection (dctn + idctn of the potential).
TRANSFORMS_PER_DIFFUSION = 8
TRANSFORMS_PER_PROJECTION = 2

PER_LAYER = (
    ("grid.diffusion_solve.calls", "count"),
    ("grid.transforms", "count"),
    ("grid.diffusion_solve.self_s", "s"),
    ("grid.project_div_free.self_s", "s"),
    ("grid.inner_space_time.calls", "count"),
    ("grid.inner_space_time.self_s", "s"),
    ("grid.step_us", "us"),
    ("stokes.solve_coupled_linear.calls", "count"),
    ("stokes.solve_coupled_linear.picard_sweeps", "count"),
    ("stokes.solve_coupled_linear.self_s", "s"),
    ("stokes.solve_backward_adjoint.calls", "count"),
    ("stokes.solve_backward_adjoint.picard_sweeps", "count"),
    ("stokes.solve_backward_adjoint.self_s", "s"),
    ("stokes.solve_forward.calls", "count"),
    ("stokes.solve_forward.self_s", "s"),
    ("leader.cg_iters", "count"),
    ("leader.control_to_terminal.calls", "count"),
    ("leader.solve_null_control_cg.self_s", "s"),
    ("saddle.robust_cost.calls", "count"),
    ("saddle.robust_cost.self_s", "s"),
    ("saddle.verify_saddle.self_s", "s"),
    ("saddle.saddle_ascent_descent.iterations", "count"),
    ("carleman.observability_ratio.self_s", "s"),
    ("carleman.adjoint_pairs", "count"),
    ("harness.config_from_dict.self_s", "s"),
    ("harness.problem.self_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("fieldio.write_trajectory.calls", "count"),
    ("fieldio.write_trajectory.self_s", "s"),
    ("fieldio.bytes_written", "B"),
)

COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


class Tracer:
    """Context manager that records spans while the traced functions are wrapped."""

    def __init__(self):
        self.spans: list = []   # [name, parent index, start, end, count]
        self._stack: list = []
        self._patches: list = []   # (namespace owner, attribute, original)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for mod_name, attr, span_name, reader in TARGETS:
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(span_name, original, reader)
                if path:
                    self._patch(owner, leaf, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn, reader):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if reader is not None:
                span[4] = reader(out, args, kwargs)
            return out

        return traced

    def dump(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], round(s[2], 9), round(s[3], 9), s[4]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "parent", "start", "end", "count"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children.setdefault(s[1], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[2], s[3]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][2], start), min(spans[c][3], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][1]
    return False


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced round, by name (see PER_LAYER)."""
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    counts: dict = {}
    for s, st in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st
        counts[s[0]] = counts.get(s[0], 0) + s[4]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    stokes_wall = sum(
        s[3] - s[2] for i, s in enumerate(spans)
        if s[0] in STOKES_SOLVES and not _has_ancestor(spans, i, STOKES_SOLVES)
    )
    diffusion = n("grid.diffusion_solve")
    adjoint_pairs = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "stokes.solve_backward_adjoint"
        and _has_ancestor(spans, i, ("carleman.observability_ratio",))
    )
    return {
        "grid.diffusion_solve.calls": diffusion,
        "grid.transforms": (TRANSFORMS_PER_DIFFUSION * diffusion
                            + TRANSFORMS_PER_PROJECTION * n("grid.project_div_free")),
        "grid.diffusion_solve.self_s": t("grid.diffusion_solve"),
        "grid.project_div_free.self_s": t("grid.project_div_free"),
        "grid.inner_space_time.calls": n("grid.inner_space_time"),
        "grid.inner_space_time.self_s": t("grid.inner_space_time"),
        "grid.step_us": 1e6 * stokes_wall / diffusion if diffusion else 0.0,
        "stokes.solve_coupled_linear.calls": n("stokes.solve_coupled_linear"),
        "stokes.solve_coupled_linear.picard_sweeps": counts.get("stokes.solve_coupled_linear", 0),
        "stokes.solve_coupled_linear.self_s": t("stokes.solve_coupled_linear"),
        "stokes.solve_backward_adjoint.calls": n("stokes.solve_backward_adjoint"),
        "stokes.solve_backward_adjoint.picard_sweeps": counts.get("stokes.solve_backward_adjoint", 0),
        "stokes.solve_backward_adjoint.self_s": t("stokes.solve_backward_adjoint"),
        "stokes.solve_forward.calls": n("stokes.solve_forward"),
        "stokes.solve_forward.self_s": t("stokes.solve_forward"),
        "leader.cg_iters": counts.get("leader.solve_null_control_cg", 0),
        "leader.control_to_terminal.calls": n("leader.control_to_terminal"),
        "leader.solve_null_control_cg.self_s": t("leader.solve_null_control_cg"),
        "saddle.robust_cost.calls": n("saddle.robust_cost"),
        "saddle.robust_cost.self_s": t("saddle.robust_cost"),
        "saddle.verify_saddle.self_s": t("saddle.verify_saddle"),
        "saddle.saddle_ascent_descent.iterations": counts.get("saddle.saddle_ascent_descent", 0),
        "carleman.observability_ratio.self_s": t("carleman.observability_ratio"),
        "carleman.adjoint_pairs": adjoint_pairs,
        "harness.config_from_dict.self_s": t("harness.config_from_dict"),
        "harness.problem.self_s": t("harness.problem"),
        "harness.run_experiment.self_s": t("harness.run_experiment"),
        "fieldio.write_trajectory.calls": n("fieldio.write_trajectory"),
        "fieldio.write_trajectory.self_s": t("fieldio.write_trajectory"),
        "fieldio.bytes_written": counts.get("fieldio.write_trajectory", 0),
    }
