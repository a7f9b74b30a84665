"""Experiment configuration, orchestration, and result emission.

One JSON config file describes one experiment run.  Re-running the same
config (same seed) in the default single-threaded mode reproduces every
emitted metric bit-identically: all randomness flows through counter-based
generators keyed by (seed, stream name).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import datetime
import hashlib
import json
import math
import numbers
import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fieldio
from .errors import ConfigurationError, GeometryError, NumericalError
from .grid import (
    GridSpec,
    Region,
    SmoothCutoff,
    Trajectory,
    VelocityField,
    closed_noise,
    h1_norm,
    norm,
    project_div_free,
    stream_function_velocity,
    traj_norm,
)
from .saddle import (
    RobustParams,
    SaddleProblem,
    estimate_gamma_threshold,
    saddle_ascent_descent,
    saddle_from_coupled,
    verify_saddle,
)
from .leader import PenaltyConfig, solve_null_control_cg, solve_null_control_nonlinear
from .carleman import (
    _ETA_MAX,
    CarlemanParams,
    WeightFamily,
    _guarded_times,
    _require_appendix_regime,
    _require_domination,
    alpha_ratio,
    check_laplacian_weight_bound,
    check_weight_domination,
    log_weight_eval,
    observability_ratio,
    weighted_norm_components,
)
from .stokes import SolverOptions, _require_small_data, solve_forward_terminal

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "parse_config",
    "config_from_dict",
    "run_experiment",
    "rng_stream",
    "default_config_dict",
    "read_json",
    "EXPERIMENTS",
]

OUTPUT_ROOT_ENV = "STACKSTOKES_OUT"


def rng_stream(seed: int, stream: str) -> np.random.Generator:
    """Counter-based generator for a named stream; streams never overlap."""
    key = zlib.crc32(stream.encode())
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    grid: GridSpec
    omega: Region
    follower_set: Region
    obs_set: Region
    inner_set: Region
    cutoff_taper_cells: float
    robust: RobustParams
    carleman: CarlemanParams
    penalty: PenaltyConfig
    solver: SolverOptions
    data: dict
    options: dict
    raw: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.omega.intersects(self.follower_set):
            raise GeometryError(
                "geometry violates the disjointness hypothesis 'O n omega = empty': "
                f"omega={self.omega} intersects O={self.follower_set}"
            )
        if not self.omega.intersects(self.obs_set):
            raise GeometryError(
                "geometry violates the overlap hypothesis 'omega n O_d != empty': "
                f"omega={self.omega} misses O_d={self.obs_set}"
            )
        if not (self.omega.contains(self.inner_set) and self.obs_set.contains(self.inner_set)):
            raise GeometryError(
                "geometry violates the containment hypothesis 'omega0 inside omega n O_d': "
                f"omega0={self.inner_set} not inside both omega={self.omega} "
                f"and O_d={self.obs_set}"
            )
        # the weight profile's one critical point is the center of the box
        cx, cy = self.grid.Lx / 2.0, self.grid.Ly / 2.0
        if not self.inner_set.contains_point(cx, cy):
            raise GeometryError(
                "geometry violates the weight hypothesis 'eta has no critical point "
                f"outside omega0': omega0={self.inner_set} misses the center ({cx}, {cy})"
            )

    def cutoff(self) -> SmoothCutoff:
        return SmoothCutoff.for_grid(self.follower_set, self.grid, self.cutoff_taper_cells)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    # ---------------- deterministic data synthesis ----------------

    def _div_free_samples(self, stream: str, n: int, amp: float = 1.0) -> list:
        """n projected noise fields from the named stream; the projection ignores
        the normal faces that closed_noise zeroes."""
        g = self.grid
        return [project_div_free(VelocityField.from_packed(g, row))
                for row in closed_noise(g, rng_stream(self.seed, stream), n, amp)]

    def initial_state(self) -> VelocityField:
        g = self.grid
        d = self.data
        kind, amp = d["y0_kind"], d["y0_amplitude"]
        if kind == "zero" or amp == 0.0:
            y0 = VelocityField.zeros(g)
        elif kind == "eddy":
            xn = np.arange(g.nx + 1) * g.hx
            yn = np.arange(g.ny + 1) * g.hy
            psi = amp * np.sin(np.pi * xn[:, None] / g.Lx) * np.sin(np.pi * yn[None, :] / g.Ly)
            y0 = stream_function_velocity(g, psi)
        else:  # "random", the last kind data.y0_kind takes
            y0, = self._div_free_samples("y0", 1, amp)
        if "y0_v_norm" in d:
            cur = h1_norm(y0)
            if cur == 0.0:
                raise ConfigurationError("cannot rescale a zero initial state")
            y0 = y0 * (d["y0_v_norm"] / cur)
            if not math.isfinite(cur + h1_norm(y0)):  # y0 / inf was the zero field
                raise ConfigurationError(f"cannot rescale an initial state of H1 norm {cur:.3e}")
        return y0

    def target_trajectory(self) -> Trajectory | None:
        amp = self.data["yd_amplitude"]
        if amp == 0.0:
            return None
        g = self.grid
        return Trajectory(g, closed_noise(g, rng_stream(self.seed, "yd"), g.nt + 1, amp))

    def leader_trajectory(self) -> Trajectory | None:
        amp = self.data["h_amplitude"]
        if amp == 0.0:
            return None
        g = self.grid
        return Trajectory(g, closed_noise(g, rng_stream(self.seed, "h"), g.nt + 1, amp,
                                          first=1))

    def problem(self) -> SaddleProblem:
        return SaddleProblem(
            self.grid,
            self.omega,
            self.cutoff(),
            self.obs_set,
            self.initial_state(),
            self.target_trajectory(),
            self.robust,
            self.solver,
        )


_REQUIRED, _OWN = object(), object()
_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}


def _typed(value, where: str, kind=float):
    """``value`` checked against a JSON kind and cast: int fields also take integral
    floats, the kind ``[k]`` is a list of k, and no number may be infinite or NaN,
    as JSON has neither (a non-finite list entry names the list's field)."""
    if isinstance(kind, list):
        vals = _typed(value, where, list)
        return [_typed(v, f"{where}[{i}]", kind[0]) for i, v in enumerate(vals)]
    if kind in (int, float):
        ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
        if ok and not (abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral)
                       else math.isfinite(value)):
            raise ConfigurationError(f"config field '{where.partition('[')[0]}' must be a finite "
                                     f"double (JSON has no Infinity or NaN), got {value!r}")
        if ok and kind is int and not isinstance(value, numbers.Integral):
            ok = float(value).is_integer()
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigurationError(f"config field '{where}' must be {_KINDS[kind]}, got {value!r}")
    return kind(value) if kind in (int, float) else value


# The ranges that several fields share.  A cost weight enters squared and
# inverse squared, so both must be finite and nonzero.
_WEIGHT = (lambda v: 0 < v and 0 < v * v < math.inf and 1 / (v * v) < math.inf,
           "positive, with a finite nonzero square and inverse square")
_RELATIVE = (lambda v: v < 1, "below 1: a relative tolerance of 1 or more accepts the "
             "starting iterate")
# The upper bounds of sizes and counts: each is at least 8 times the largest
# value that a shipped config, a test or the benchmark uses, and keeps 1e300
# from failing numpy's allocation or looping almost forever.
_CELLS = "at most 2048: a velocity field of a 2048 x 2048 grid takes 67 MB"
_STEPS = "at most 65536: a trajectory holds nt + 1 velocity fields"
_CAP = "at most 100000: a cap is a budget, and no shipped config needs more than 800"

# Every config field, keyed by its path ("s.k" is the entry k of the section s):
# its JSON kind, its default, and the range of a value with its text.  The
# kind [k] is a list of k.  The default is a value, _REQUIRED, or _OWN, which
# leaves the field out: its section's dataclass then applies its own default,
# and an absent data.y0_v_norm rescales nothing.  A field has no range where
# its dataclass checks the value.
_FIELDS = {
    "experiment": (str, _REQUIRED),  # ExperimentConfig checks the name
    "seed": (int, _REQUIRED, lambda v: 0 <= v <= 2**53, "between 0 and 2**53: a larger "
             "integer does not survive a JSON reader that holds numbers as doubles"),
    # SmoothCutoff.for_grid checks it only when a run builds the cutoff
    "cutoff_taper_cells": (float, 4.0, lambda v: v > 0, "positive"),
    "grid.nx": (int, _REQUIRED, lambda v: v <= 2048, _CELLS),
    "grid.ny": (int, _REQUIRED, lambda v: v <= 2048, _CELLS),
    "grid.Lx": (float, _OWN),
    "grid.Ly": (float, _OWN),
    "grid.nt": (int, _REQUIRED, lambda v: v <= 65536, _STEPS),
    "grid.T": (float, _REQUIRED),
    **{f"regions.{k}": ([float], _REQUIRED, lambda v: len(v) == 4, "[x0, x1, y0, y1]")
       for k in ("omega", "O", "Od", "omega0")},
    "robust.ell": (float, _REQUIRED, *_WEIGHT),
    "robust.gamma": (float, _REQUIRED, *_WEIGHT),
    "robust.mu": (float, _OWN),
    "carleman.lam": (float, 2.0),
    "carleman.s": (float, 3.0),
    "carleman.a0": (float, _OWN),
    "carleman.m0": (float, _OWN),
    "penalty.epsilon": (float, _OWN),
    "penalty.cg_tol": (float, _OWN, *_RELATIVE),
    "penalty.cg_max": (int, _OWN, lambda v: v <= 10**5, _CAP),
    "penalty.epsilon_schedule": ([float], _OWN),
    "solver.convection_on": (bool, _OWN),
    "solver.picard_tol": (float, _OWN, *_RELATIVE),
    "solver.picard_max": (int, _OWN, lambda v: v <= 10**5, _CAP),
    "solver.relax": (float, _OWN),
    "solver.small_data_delta": (float, _OWN),
    "data.y0_kind": (str, "eddy", lambda v: v in ("zero", "eddy", "random"),
                     "one of 'zero', 'eddy', 'random'"),
    "data.y0_amplitude": (float, 0.0),
    "data.y0_v_norm": (float, _OWN, lambda v: v > 0, "positive"),
    "data.yd_amplitude": (float, 0.0),
    "data.h_amplitude": (float, 0.0),
    # the options entries the pipelines read
    "options.n_probes": (int, 100, lambda v: 2 <= v <= 10**4, "between 2 and 10000: a fixed "
                         "probe, then random ones, each a forward solve"),
    "options.outer_tol": (float, 1e-6, lambda v: v > 0, "positive"),
    "options.outer_max": (int, 25, lambda v: 1 <= v <= 10**5, f"at least 1 and {_CAP}"),
    "options.domination_epsilon": (float, 1.0, lambda v: v > 0, "positive"),
    "options.domination_lams": ([float], [1.0, 2.0, 4.0], lambda v: len(v) >= 1 and 0 < min(v),
                                "one or more positive numbers"),
    "options.n_laplacian_samples": (int, 20, lambda v: 1 <= v <= 10**4, "between 1 and "
                                    "10000: each sample is a stored velocity field"),
    "options.laplacian_s": (float, 5.0, lambda v: v > 0, "positive"),
    "options.n_observability_samples": (int, 25, lambda v: 1 <= v <= 10**4, "between 1 and "
                                        "10000: each sample costs three adjoint pairs"),
    # np.geomspace(0.05, 50.0, 13) written out: calling it pages numpy's power
    # and log10 kernels in, about 0.5 MiB of resident memory in every run
    "options.gamma_grid": ([float], [0.05, 0.08891397050194613, 0.15811388300841894,
                                     0.2811706625951745, 0.49999999999999994,
                                     0.8891397050194613, 1.5811388300841895, 2.811706625951745,
                                     4.999999999999999, 8.891397050194612, 15.811388300841895,
                                     28.11706625951745, 50.0],
                           lambda v: len(v) >= 2 and all(map(_WEIGHT[0], v)),
                           f"two or more numbers, each {_WEIGHT[1]}"),
    "options.max_iter": (int, 400, lambda v: 1 <= v <= 10**5, f"at least 1 and {_CAP}"),
    # the convergence study solves every size and compares neighbours; its
    # nt = base_nt (nx / sizes[0])^2 keeps dt ~ h^2 only for multiples of the first
    "options.sizes": ([int], [16, 32, 64],
                      lambda v: (len(v) >= 2 and 8 <= v[0] and v[-1] <= 2048
                                 and all(a < b for a, b in zip(v, v[1:]))
                                 and all(n % v[0] == 0 for n in v)),
                      "at least two grid sizes in increasing order, each a multiple of the "
                      f"first, the first at least 8 and the last {_CELLS}"),
    "options.horizon": (float, 0.25, lambda v: v > 0, "positive"),
    "options.base_nt": (int, 32, lambda v: 8 <= v <= 65536, f"at least 8 and {_STEPS}"),
}

_SECTIONS = dict.fromkeys(path.rpartition(".")[0] for path in _FIELDS)  # "" the top level

# What each section builds; the fields of the top level are ExperimentConfig's
# own, and each box of regions is a Region.
_BUILDS = {"grid": GridSpec, "robust": RobustParams, "carleman": CarlemanParams,
           "penalty": PenaltyConfig, "solver": SolverOptions, "data": dict, "options": dict}


def _built(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ConfigurationError of it naming ``where`` in the config."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as e:
        raise type(e)(f"config {where}: {e}") from e


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build the experiment config from the fields of ``_FIELDS``; a missing field,
    an unknown one (a misspelling would leave its field at the default), or one of
    the wrong JSON type or outside its range raises ConfigurationError naming its
    path, a value its section's dataclass refuses names the section, and a region
    box that is degenerate or leaves the domain names its path.  A null entry
    counts as absent, so its default applies.  The run's own refusals are made
    by the functions the run calls, on the start that it builds."""
    raw = _typed(raw, "(top level)", dict)
    given = {s: {} if raw.get(s) is None else _typed(raw[s], s, dict) for s in _SECTIONS if s}
    given[""] = raw
    unknown = {f"{s}.{k}" if s else k for s in given for k in given[s]} - {*_FIELDS, *_SECTIONS}
    if unknown:
        raise ConfigurationError("unknown config field " + ", ".join(map(repr, sorted(unknown))))
    fields = {s: {} for s in _SECTIONS}  # the checked fields of each section
    for path, (kind, default, *rng) in _FIELDS.items():
        section, _, key = path.rpartition(".")
        value = given[section].get(key)
        if value is not None:
            fields[section][key] = _typed(value, path, kind)
            if rng and not rng[0](fields[section][key]):
                raise ConfigurationError(f"config field '{path}' must be {rng[1]}, got {value!r}")
        elif default is _REQUIRED:
            raise ConfigurationError(f"missing config field '{path}'")
        elif default is not _OWN:
            fields[section][key] = copy.copy(default)
    experiment, data, opts = fields[""]["experiment"], fields["data"], fields["options"]
    if experiment == "convergence" and fields["solver"].get("convection_on"):
        raise ConfigurationError("config field 'solver.convection_on' must be false for the "
                                 "convergence experiment: its manufactured forcing is Stokes-only")
    schedule = fields["penalty"].get("epsilon_schedule", [])
    if experiment == "nullcontrol-nonlinear" and len(schedule) >= 2:
        raise ConfigurationError("config field 'penalty.epsilon_schedule' must hold at most one "
                                 "epsilon for the nullcontrol-nonlinear experiment: its outer "
                                 f"loop warm-starts the CG at a single epsilon, got {schedule!r}")
    zero = ("y0_kind" if data["y0_kind"] == "zero"
            else "y0_amplitude" if data["y0_amplitude"] == 0.0 else None)
    if "y0_v_norm" in data and zero:
        raise ConfigurationError(f"config field 'data.y0_v_norm' cannot rescale the zero initial "
                                 f"state of 'data.{zero}' = {data[zero]!r}")
    # measured ratios: 3.99-4.19 up to a coarse step of 0.625, up to 10.9 beyond it
    if opts["horizon"] / opts["base_nt"] > 0.625:
        raise ConfigurationError("config field 'options.horizon' must be at most 0.625 * "
                                 "options.base_nt: a longer coarse step moves the convergence "
                                 f"ratios away from 4, got {opts['horizon']!r}")
    finest = opts["base_nt"] * (opts["sizes"][-1] // opts["sizes"][0]) ** 2
    if finest > 65536:
        raise ConfigurationError("config field 'options.sizes' must keep the finest level's nt = "
                                 "options.base_nt * (sizes[-1] / sizes[0])^2 " + _STEPS
                                 + f", got {opts['sizes']!r}, nt = {finest}")
    built = {s: _built(f"section '{s}'", build, **fields[s]) for s, build in _BUILDS.items()}
    g = built["grid"]
    r = {k: _built(f"field 'regions.{k}'", Region, *box) for k, box in fields["regions"].items()}
    for k, box in r.items():
        if not Region(0.0, g.Lx, 0.0, g.Ly).contains(box):
            raise GeometryError(f"config field 'regions.{k}' must lie inside the domain "
                                f"[0, {g.Lx}] x [0, {g.Ly}], got {fields['regions'][k]!r}")
    cfg = ExperimentConfig(**fields[""], **built, omega=r["omega"], follower_set=r["O"],
                           obs_set=r["Od"], inner_set=r["omega0"], raw=raw)
    if experiment == "carleman-check":
        for lam in opts["domination_lams"]:
            _built("fields 'options.domination_epsilon' and 'options.domination_lams'",
                   _require_domination, lam, opts["domination_epsilon"])
        _built("field 'carleman.a0'", _require_appendix_regime, cfg.carleman)
    if experiment != "convergence":  # every other run builds the start
        y0 = _built("field 'data.y0_v_norm'", cfg.initial_state)
    # the runs that solve the nonlinear coupled system from the start
    if experiment == "nullcontrol-nonlinear" or cfg.solver.convection_on and experiment == "saddle":
        _built("field 'solver.small_data_delta'", _require_small_data, y0, cfg.solver)
    return cfg


def read_json(path, kind: str):
    """The JSON value held by the file at ``path``; a file that cannot be read
    or is not UTF-8 JSON raises ConfigurationError naming it as ``kind``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigurationError(f"{kind} {path} cannot be read: {e.strerror}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"{kind} {path} is not valid JSON: {e}") from e


def parse_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config file"))


def default_config_dict(experiment: str = "saddle") -> dict:
    """A new dict of the experiment's template, the shipped ``configs/<experiment>.json``."""
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    return read_json(Path(__file__).with_name("configs") / f"{experiment}.json", "template")


@dataclass
class RunRecord:
    config_hash: str
    experiment: str
    metrics: dict
    artifacts: list
    run_dir: str
    incomplete: bool = False


class _Artifacts(list):
    """The paths of the files a run has written, each listed once it is written,
    so that the manifest of a failed run names what the run left behind."""

    def __init__(self, outdir: Path, config_hash: str):
        super().__init__()
        self.outdir, self.config_hash = outdir, config_hash

    def csv(self, name: str, header, rows) -> None:
        path = self.outdir / name
        with _writing(path), open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={self.config_hash}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                # float() first: numpy 2 reprs its scalars as "np.float64(...)"
                fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        self.append(str(path))

    def trajectory(self, name: str, traj: Trajectory) -> None:
        with _writing(self.outdir / "fields" / f"{name}.sgf"):
            self.append(str(fieldio.write_trajectory(self.outdir / "fields", name, traj)))


@contextlib.contextmanager
def _writing(path: Path):
    """An OSError of the block, a ConfigurationError naming the output ``path``."""
    try:
        yield
    except OSError as e:
        raise ConfigurationError(f"output path {path} cannot be written: {e.strerror or e}") from e


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _exp_saddle(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    prob = cfg.problem()
    lead = cfg.leader_trajectory()
    res = saddle_from_coupled(prob, lead)
    res2 = saddle_ascent_descent(prob, lead, rng=rng_stream(cfg.seed, "power-iteration"))
    den = traj_norm(res.psi_bar) + traj_norm(res.v_bar)
    agree = (
        (traj_norm(res.psi_bar - res2.psi_bar) + traj_norm(res.v_bar - res2.v_bar)) / den
        if den > 0 else 0.0
    )
    report = verify_saddle(prob, res, lead, n_probes=cfg.options["n_probes"],
                           rng=rng_stream(cfg.seed, "saddle-probes"))
    out.csv("probe_margins.csv", ["probe", "magnitude", "margin_psi", "margin_v", "ok"],
            [(i, r[1], r[2], r[3], int(r[4])) for i, r in enumerate(report.rows)])
    out.trajectory("psi_bar", res.psi_bar)
    out.trajectory("v_bar", res.v_bar)
    return {
        "residual_psi": res.residual_psi,
        "residual_v": res.residual_v,
        "coupled_iterations": res.iterations,
        "coupled_converged": res.converged,
        "cost": res.cost,
        "ascent_descent_iterations": res2.iterations,
        "method_agreement_rel": agree,
        "probe_violations": report.violations,
        "probe_worst_psi_margin": report.worst_psi_margin,
        "probe_worst_v_margin": report.worst_v_margin,
        "probe_tol": report.tol,
    }


def _exp_nullcontrol(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    prob = cfg.problem()
    res = solve_null_control_cg(prob, cfg.penalty)
    uncontrolled = res.free_terminal_norm
    rows = [
        (r.epsilon, r.terminal_norm, r.control_norm, r.cg_iters, r.objective)
        for r in res.history
    ]
    out.csv("epsilon_sweep.csv",
            ["epsilon", "terminal_norm", "control_norm", "cg_iters", "objective"], rows)
    out.csv("objective_curve.csv", ["iteration", "objective"],
            list(enumerate(res.objective_curve)))
    out.trajectory("h", res.h)
    metrics = {
        "epsilon": res.epsilon,
        "terminal_norm": res.terminal_norm,
        "control_norm": res.control_norm,
        "cg_iters": res.cg_iters,
        "objective": res.objective,
        "uncontrolled_terminal_norm": uncontrolled,
        "terminal_reduction": (
            res.terminal_norm / uncontrolled if uncontrolled > 0 else 0.0
        ),
        "reduction_per_epsilon": {
            repr(r.epsilon): (r.terminal_norm / uncontrolled if uncontrolled > 0 else 0.0)
            for r in res.history
        },
    }
    if len(rows) >= 2:
        eps = np.array([r[0] for r in rows])
        tn = np.array([r[1] for r in rows])
        cn = np.array([r[2] for r in rows])
        metrics["terminal_strictly_decreasing"] = bool(np.all(np.diff(tn) < 0))
        # the least-squares slope of log tn against log eps, from centred logs
        lx, ly = (v - v.mean() for v in (np.log(eps), np.log(tn)))
        metrics["loglog_slope"] = float(lx @ ly / (lx @ lx))
        metrics["max_control_growth_ratio"] = float(np.max(cn[1:] / cn[:-1]))
    # the linear coupled system that the CG steers, driven by its control
    sol = res.final_solution
    enorm = weighted_norm_components(sol.y, sol.z, res.h, cfg.carleman, omega=cfg.omega)
    metrics["weighted_norm_log10"] = enorm
    metrics["weighted_norm_finite"] = bool(
        all(not math.isnan(v) for v in enorm.values())
    )
    return metrics


def _exp_nullcontrol_nonlinear(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    prob = cfg.problem()
    # convection_on does not switch the linear path that the CG reads; the
    # linear control starts the outer loop, which inverts the same operator
    lin = solve_null_control_cg(prob, cfg.penalty)
    res = solve_null_control_nonlinear(
        prob, cfg.penalty,
        outer_tol=cfg.options["outer_tol"],
        outer_max=cfg.options["outer_max"],
        h_start=lin.h,
    )
    out.trajectory("h", res.h)
    return {
        "outer_iterations": res.outer_iterations,
        "terminal_norm_nonlinear": res.terminal_norm,
        "terminal_norm_linear": lin.terminal_norm,
        "nonlinear_over_linear": (
            res.terminal_norm / lin.terminal_norm if lin.terminal_norm > 0 else 0.0
        ),
        "control_norm": res.control_norm,
        "cg_iters": res.cg_iters,
    }


def _exp_carleman(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    p = cfg.carleman
    T = cfg.grid.T
    opts = cfg.options
    metrics = {
        "alpha_ratio_large_lam": alpha_ratio(50.0),
        "alpha_ratio_small_lam": alpha_ratio(1e-6),
    }
    # weight table for inspection
    ts = _guarded_times(T, 64)

    def log_w(family, eta=0.0):
        return log_weight_eval(p, family, T, ts, eta)

    W, M = WeightFamily, _ETA_MAX
    rows = np.column_stack((ts, log_w(W.ALPHA), log_w(W.ALPHA, M), log_w(W.XI),
                            log_w(W.XI, M), log_w(W.BETA), log_w(W.TAU, M))).tolist()
    out.csv("weight_table.csv", ["t", "log_alpha_star", "log_alpha_hat", "log_xi_star",
                                 "log_xi_hat", "log_beta_star", "log_tau_hat"], rows)
    # domination inequality across lam, plus the full ratio curve at the
    # configured lam
    eps = opts["domination_epsilon"]
    dom = []
    for lam in opts["domination_lams"]:
        rep = check_weight_domination(dataclasses.replace(p, lam=lam), T, eps)
        dom.append((lam, rep.max_log_ratio))
        if lam == p.lam:
            out.csv("domination_curve.csv", ["t", "log_ratio"],
                    list(zip(rep.t_values.tolist(), rep.log_ratios.tolist())))
    out.csv("domination.csv", ["lam", "max_log_ratio"], dom)
    metrics["domination_log_ratios"] = {str(l): r for l, r in dom}
    metrics["domination_nonincreasing"] = bool(
        all(dom[i + 1][1] <= dom[i][1] for i in range(len(dom) - 1))
    )
    # local/global Laplacian bound stability under t-grid doubling
    us = cfg._div_free_samples("laplacian-samples", opts["n_laplacian_samples"])
    s5 = dataclasses.replace(p, s=opts["laplacian_s"])
    b1, b2 = check_laplacian_weight_bound(s5, T, us, cfg.omega, n_times=(128, 256))
    metrics["laplacian_bound_max"] = b1.max_ratio
    metrics["laplacian_bound_max_fine"] = b2.max_ratio
    metrics["laplacian_bound_stability"] = (
        b2.max_ratio / b1.max_ratio if b1.max_ratio > 0 else 1.0
    )
    # observability constant stability under sample doubling
    coup = cfg.problem().coupling
    n_obs = opts["n_observability_samples"]
    rep1 = observability_ratio(p, coup, cfg.omega,
                               cfg._div_free_samples("observability-a", n_obs), cfg.solver)
    rep2 = observability_ratio(p, coup, cfg.omega,
                               cfg._div_free_samples("observability-b", 2 * n_obs), cfg.solver)
    out.csv("observability_samples.csv", ["sample", "ratio"],
            list(enumerate(rep1.ratios + rep2.ratios)))
    metrics["observability_max"] = rep1.max_ratio
    metrics["observability_max_doubled"] = rep2.max_ratio
    metrics["observability_stability"] = (
        rep2.max_ratio / rep1.max_ratio if rep1.max_ratio > 0 else 1.0
    )
    return metrics


def _exp_gamma0(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    prob = cfg.problem()
    lead = cfg.leader_trajectory()
    res = estimate_gamma_threshold(
        prob, lead, cfg.options["gamma_grid"],
        max_iter=cfg.options["max_iter"],
        rng=rng_stream(cfg.seed, "power-iteration"),
    )
    out.csv("gamma_scan.csv", ["gamma", "converged"],
            [(gv, int(ok)) for gv, ok in res.outcomes])
    return {
        "bracket_lower": res.lower,
        "bracket_upper": res.upper,
        "one_sided": res.one_sided,
        "n_probed": len(res.outcomes),
    }


def _mms_fields(amp=0.1):
    """Manufactured Stokes solution from the stream function amp*e^-t sin^3 sin^3.

    The cubed sines make the forcing's normal components vanish at the walls,
    so the sampled forcing lies in the discrete no-penetration space and the
    projected scheme sees no spurious boundary flux.
    """
    pi = np.pi

    def c(t):
        return 3.0 * amp * pi * np.exp(-t)

    s = lambda x: np.sin(pi * x)
    co = lambda x: np.cos(pi * x)

    u = lambda x, y, t: c(t) * s(x) ** 3 * s(y) ** 2 * co(y)
    v = lambda x, y, t: -c(t) * s(x) ** 2 * co(x) * s(y) ** 3

    def lap_u(x, y, t):
        return c(t) * pi**2 * (
            3.0 * s(x) * (2 * co(x) ** 2 - s(x) ** 2) * s(y) ** 2 * co(y)
            + s(x) ** 3 * (2 * co(y) ** 3 - 7 * s(y) ** 2 * co(y))
        )

    def lap_v(x, y, t):
        return -c(t) * pi**2 * (
            3.0 * s(x) ** 2 * co(x) * s(y) * (2 * co(y) ** 2 - s(y) ** 2)
            + (2 * co(x) ** 3 - 7 * s(x) ** 2 * co(x)) * s(y) ** 3
        )

    px = lambda x, y, t: -0.05 * np.exp(-t) * pi * s(x) * co(y)
    py = lambda x, y, t: -0.05 * np.exp(-t) * pi * co(x) * s(y)
    fu = lambda x, y, t: -u(x, y, t) - lap_u(x, y, t) + px(x, y, t)
    fv = lambda x, y, t: -v(x, y, t) - lap_v(x, y, t) + py(x, y, t)
    return u, v, fu, fv


def _exp_convergence(cfg: ExperimentConfig, out: _Artifacts) -> dict:
    """Manufactured-solution order study of the forward Stokes march on the unit square.

    Each size nx of ``options.sizes`` runs nt = base_nt (nx / sizes[0])^2
    steps, so dt ~ h^2, and only the error of y(T) against the exact state
    is read.  Every term of the manufactured forcing carries e^-t, so it is
    e^-t F(x, y) with F the forcing at t = 0:
    :func:`~stackstokes.stokes.solve_forward_terminal` maps F to V
    coordinates once per size and marches its e^-t multiples one level at a
    time, so no size holds its forcing or its states over the whole horizon.
    Neighbouring errors give the ratios, about 4 for a second-order scheme.
    """
    sizes = cfg.options["sizes"]
    T = cfg.options["horizon"]
    base_nt = cfg.options["base_nt"]
    u, v, fu, fv = _mms_fields()
    rows = []
    errs = []
    for nx in sizes:
        nt = base_nt * (nx // sizes[0]) ** 2
        g = GridSpec(nx=nx, ny=nx, nt=nt, T=T)
        y0 = VelocityField.from_functions(
            g, lambda x, y: u(x, y, 0.0), lambda x, y: v(x, y, 0.0)
        )
        force = VelocityField.from_functions(
            g, lambda x, y: fu(x, y, 0.0), lambda x, y: fv(x, y, 0.0)
        )
        # the exact state is built once the march has returned
        e = norm(solve_forward_terminal(y0, force, lambda t: np.exp(-t), cfg.solver)
                 - VelocityField.from_functions(g, lambda x, y: u(x, y, T),
                                                lambda x, y: v(x, y, T)))
        errs.append(e)
        rows.append((nx, nt, e))
    if 0.0 in errs:
        raise NumericalError(f"the error on nx = {sizes[errs.index(0.0)]} underflows to 0, "
                             "so no convergence ratio exists; shorten options.horizon")
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    out.csv("convergence.csv", ["nx", "nt", "error"], rows)
    return {
        "errors": errs,
        "ratios": ratios,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
    }


_PIPELINES = {
    "saddle": _exp_saddle,
    "nullcontrol": _exp_nullcontrol,
    "nullcontrol-nonlinear": _exp_nullcontrol_nonlinear,
    "carleman-check": _exp_carleman,
    "gamma0-scan": _exp_gamma0,
    "convergence": _exp_convergence,
}

EXPERIMENTS = tuple(_PIPELINES)


def _non_finite(value, path: str = "") -> list:
    """(dotted path, value) of every NaN or infinite number in nested metrics."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return [(path, value)] if isinstance(value, float) and not math.isfinite(value) else []
    return [leaf for key, v in items for leaf in _non_finite(v, key)]


def _finite(metrics: dict) -> dict:
    """``metrics``, if every number in them is finite; an entry of
    ``weighted_norm_log10`` may be -inf, the log10 of a zero norm."""
    bad = [path for path, v in _non_finite(metrics)
           if not (path.startswith("weighted_norm_log10.") and v == -math.inf)]
    if bad:
        raise NumericalError(f"non-finite metrics: {', '.join(bad)}")
    return metrics


def run_experiment(cfg: ExperimentConfig, out_root=None) -> RunRecord:
    """Dispatch the configured experiment and persist manifest + artifacts.

    A NaN or infinite metric (:func:`_finite`) raises :class:`NumericalError`,
    and the manifest is written incomplete, without metrics.
    """
    if out_root is None:
        out_root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    h = cfg.config_hash()
    outdir = Path(out_root) / f"{cfg.experiment}-{h[:12]}"
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    incomplete = True
    metrics: dict = {}
    arts = _Artifacts(outdir, h)
    try:
        metrics = _finite(_PIPELINES[cfg.experiment](cfg, arts))
        incomplete = False
    finally:
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        record = RunRecord(
            config_hash=h,
            experiment=cfg.experiment,
            metrics=metrics,
            artifacts=sorted(set(arts)),
            run_dir=str(outdir),
            incomplete=incomplete,
        )
        manifest = {
            "config": cfg.raw,
            "config_hash": h,
            "experiment": cfg.experiment,
            "started": started,
            "finished": finished,
            "metrics": metrics,
            "artifacts": record.artifacts,
            "incomplete": incomplete,
        }
        _write_json_atomic(outdir / "manifest.json", manifest)
    return record


def _write_json_atomic(path: Path, obj) -> None:
    """Write ``obj`` as JSON through a temporary file in the same directory.

    ``os.replace`` swaps the finished file in, so a failed write leaves the
    previous file as it was and no temporary file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _writing(path):
            with open(tmp, "w") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True, default=repr)
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
