"""Experiment configuration, orchestration, and result emission.

One JSON config file describes one experiment run.  Re-running the same
config (same seed) in the default single-threaded mode reproduces every
emitted metric bit-identically: all randomness flows through counter-based
generators keyed by (seed, stream name).
"""

from __future__ import annotations

import copy
import dataclasses
import datetime
import hashlib
import json
import math
import numbers
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fieldio
from .errors import ConfigurationError, GeometryError
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
from .leader import (
    PenaltyConfig,
    solve_null_control_cg,
    solve_null_control_nonlinear,
)
from .carleman import (
    _ETA_MAX,
    CarlemanParams,
    WeightFamily,
    alpha_ratio,
    check_laplacian_weight_bound,
    check_weight_domination,
    log_weight_eval,
    observability_ratio,
    weighted_norm_components,
)
from .stokes import SolverOptions, solve_forward_terminal

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "parse_config",
    "config_from_dict",
    "run_experiment",
    "rng_stream",
    "default_config_dict",
    "EXPERIMENTS",
]

OUTPUT_ROOT_ENV = "STACKSTOKES_OUT"

EXPERIMENTS = (
    "saddle",
    "nullcontrol",
    "nullcontrol-nonlinear",
    "carleman-check",
    "gamma0-scan",
    "convergence",
)


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

    def initial_state(self) -> VelocityField:
        g = self.grid
        d = self.data
        kind = d.get("y0_kind", "eddy")
        amp = float(d.get("y0_amplitude", 0.0))
        if kind == "zero" or amp == 0.0:
            y0 = VelocityField.zeros(g)
        elif kind == "eddy":
            xn = np.arange(g.nx + 1) * g.hx
            yn = np.arange(g.ny + 1) * g.hy
            psi = amp * np.sin(np.pi * xn[:, None] / g.Lx) * np.sin(np.pi * yn[None, :] / g.Ly)
            y0 = stream_function_velocity(g, psi)
        else:  # "random", the last of _Y0_KINDS
            noise = closed_noise(g, rng_stream(self.seed, "y0"), 1, amp)
            y0 = project_div_free(VelocityField.from_packed(g, noise[0]))
        target = d.get("y0_v_norm")
        if target is not None:
            cur = h1_norm(y0)
            if cur == 0.0:
                raise ConfigurationError("cannot rescale a zero initial state")
            y0 = y0 * (float(target) / cur)
        return y0

    def target_trajectory(self) -> Trajectory | None:
        amp = float(self.data.get("yd_amplitude", 0.0))
        if amp == 0.0:
            return None
        g = self.grid
        return Trajectory(g, closed_noise(g, rng_stream(self.seed, "yd"), g.nt + 1, amp))

    def leader_trajectory(self) -> Trajectory | None:
        amp = float(self.data.get("h_amplitude", 0.0))
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


def _scaled_regions(scale: float, wide_omega: bool = False) -> dict:
    om = [0.30, 0.95] if wide_omega else [0.35, 0.75]
    def box(a, b):
        return [a * scale, b * scale, a * scale, b * scale]
    return {
        "omega": box(*om),
        "O": box(0.05, 0.25),
        "Od": box(0.45, 0.95),
        "omega0": box(0.46, 0.74),
    }


def default_config_dict(experiment: str = "saddle") -> dict:
    """Template config per experiment; the defaults match the shipped ones."""
    cfg = {
        "experiment": experiment,
        "seed": 20240,
        "grid": {"nx": 16, "ny": 16, "Lx": 1.0, "Ly": 1.0, "nt": 32, "T": 1.0},
        "regions": _scaled_regions(1.0),
        "cutoff_taper_cells": 4.0,
        "robust": {"ell": 10.0, "gamma": 10.0, "mu": 1.0},
        "carleman": {"lam": 2.0, "s": 3.0, "a0": 2.0, "m0": 3.5},
        "penalty": {"epsilon": 1e-4, "cg_tol": 1e-8, "cg_max": 400,
                    "epsilon_schedule": []},
        "solver": {"convection_on": False, "picard_tol": 1e-11,
                   "picard_max": 200, "relax": 1.0},
        "data": {"y0_kind": "eddy", "y0_amplitude": 0.1,
                 "yd_amplitude": 0.05, "h_amplitude": 0.1},
        "options": {},
    }
    if experiment == "nullcontrol":
        # larger slow domain so the pinned epsilon decade hits the saturated
        # penalized-steering regime (bounded control norms, sqrt-ish slope)
        cfg["grid"] = {"nx": 16, "ny": 16, "Lx": 6.0, "Ly": 6.0, "nt": 32, "T": 2.0}
        cfg["regions"] = _scaled_regions(6.0, wide_omega=True)
        cfg["penalty"]["epsilon_schedule"] = [1e-2, 1e-3, 1e-4, 1e-5]
        cfg["penalty"]["epsilon"] = 1e-5
        cfg["penalty"]["cg_max"] = 800
        cfg["data"] = {"y0_kind": "eddy", "y0_amplitude": 0.05,
                       "yd_amplitude": 0.0, "h_amplitude": 0.0}
    elif experiment == "nullcontrol-nonlinear":
        cfg["grid"] = {"nx": 16, "ny": 16, "Lx": 6.0, "Ly": 6.0, "nt": 32, "T": 2.0}
        cfg["regions"] = _scaled_regions(6.0, wide_omega=True)
        cfg["penalty"]["epsilon"] = 1e-4
        cfg["penalty"]["cg_max"] = 800
        cfg["solver"]["convection_on"] = True
        cfg["data"] = {"y0_kind": "eddy", "y0_amplitude": 0.05,
                       "y0_v_norm": 1e-3, "yd_amplitude": 0.0, "h_amplitude": 0.0}
    elif experiment == "carleman-check":
        # long slow horizon keeps the singular weights inside float range at
        # the configured (s, lam)
        cfg["grid"] = {"nx": 16, "ny": 16, "Lx": 16.0, "Ly": 16.0, "nt": 64, "T": 24.0}
        cfg["regions"] = _scaled_regions(16.0)
        cfg["data"] = {"y0_kind": "zero", "y0_amplitude": 0.0,
                       "yd_amplitude": 0.0, "h_amplitude": 0.0}
        cfg["options"] = _option_defaults("domination_lams", "domination_epsilon",
                                          "n_laplacian_samples", "laplacian_s",
                                          "n_observability_samples")
    elif experiment == "gamma0-scan":
        # slower domain so the concavity threshold sits inside the gamma grid
        cfg["grid"] = {"nx": 16, "ny": 16, "Lx": 4.0, "Ly": 4.0, "nt": 32, "T": 2.0}
        cfg["regions"] = _scaled_regions(4.0)
        cfg["data"] = {"y0_kind": "eddy", "y0_amplitude": 0.05,
                       "yd_amplitude": 0.05, "h_amplitude": 0.1}
        cfg["options"] = _option_defaults("gamma_grid", "max_iter")
    elif experiment == "convergence":
        cfg["data"] = {"y0_kind": "zero", "y0_amplitude": 0.0,
                       "yd_amplitude": 0.0, "h_amplitude": 0.0}
        cfg["options"] = _option_defaults("sizes", "horizon", "base_nt")
    return cfg


_REQUIRED = object()
_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}


def _typed(value, where: str, kind=float):
    """``value`` checked against a JSON type; int fields also take integral floats."""
    if kind in (int, float):
        ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
        if ok and kind is int and not isinstance(value, numbers.Integral):
            ok = float(value).is_integer()
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigurationError(f"config field '{where}' must be {_KINDS[kind]}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _known(d: dict, path: str, keys) -> dict:
    """``d``, after a check that it holds no key outside ``keys``; a misspelled
    key would otherwise leave its field at the default without a word."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        where = ", ".join(f"'{path}.{k}'" if path else f"'{k}'" for k in unknown)
        raise ConfigurationError(f"unknown config field {where}")
    return d


def _field(d: dict, key: str, path: str, kind=float, default=_REQUIRED):
    """``d[key]`` checked by :func:`_typed`, or ``default`` when the key is absent
    or null."""
    where = f"{path}.{key}" if path else key
    if d.get(key) is not None:
        return _typed(d[key], where, kind)
    if default is _REQUIRED:
        raise ConfigurationError(f"missing config field '{where}'")
    return default


# The data entries the pipelines read, with their JSON types, and the kinds of initial state.
_DATA_KINDS = {"y0_kind": str, "y0_amplitude": float, "y0_v_norm": float,
               "yd_amplitude": float, "h_amplitude": float}
_Y0_KINDS = ("zero", "eddy", "random")


# The options entries the pipelines read: JSON type (a one-element list is a
# list whose entries have that type), default, and the range of a value.
_OPTIONS = {
    "n_probes": (int, 100, lambda v: v >= 2, "at least 2"),  # a fixed probe, then random ones
    "outer_tol": (float, 1e-6, lambda v: v > 0, "positive"),
    "outer_max": (int, 25, lambda v: v >= 1, "at least 1"),
    "domination_epsilon": (float, 1.0, lambda v: v > 0, "positive"),
    "domination_lams": ([float], [1.0, 2.0, 4.0], lambda v: len(v) >= 1 and min(v) > 0,
                        "one or more positive numbers"),
    "n_laplacian_samples": (int, 20, lambda v: v >= 1, "at least 1"),
    "laplacian_s": (float, 5.0, lambda v: v > 0, "positive"),
    "n_observability_samples": (int, 25, lambda v: v >= 1, "at least 1"),
    # np.geomspace(0.05, 50.0, 13) written out: calling it pages numpy's power
    # and log10 kernels in, about 0.5 MiB of resident memory in every run
    "gamma_grid": ([float], [0.05, 0.08891397050194613, 0.15811388300841894,
                             0.2811706625951745, 0.49999999999999994, 0.8891397050194613,
                             1.5811388300841895, 2.811706625951745, 4.999999999999999,
                             8.891397050194612, 15.811388300841895, 28.11706625951745, 50.0],
                   lambda v: len(v) >= 2 and min(v) > 0, "two or more positive numbers"),
    "max_iter": (int, 400, lambda v: v >= 1, "at least 1"),
    # the convergence study solves every size and compares neighbours; its
    # nt = base_nt (nx / sizes[0])^2 keeps dt ~ h^2 only for multiples of the first
    "sizes": ([int], [16, 32, 64],
              lambda v: (len(v) >= 2 and v[0] >= 8 and all(a < b for a, b in zip(v, v[1:]))
                         and all(n % v[0] == 0 for n in v)),
              "at least two grid sizes >= 8 in increasing order, each a multiple of the first"),
    "horizon": (float, 0.25, lambda v: v > 0, "positive"),
    "base_nt": (int, 32, lambda v: v >= 8, "at least 8"),
}


def _option_defaults(*names) -> dict:
    """The named options at their defaults, as a config's ``options`` object."""
    return {k: copy.copy(_OPTIONS[k][1]) for k in names}


def _section(raw: dict, key: str, kinds: dict, required=()) -> dict:
    """A copy of the object ``raw[key]`` with the entries named in ``kinds`` checked
    by :func:`_typed`; a null entry counts as absent, so its default applies,
    and an absent entry named in ``required`` raises ConfigurationError."""
    d = dict(_known(_field(raw, key, "", dict, {}), key, kinds))
    for name in required:
        _field(d, name, key, kinds[name])
    for name, kind in kinds.items():
        if d.get(name) is None:
            d.pop(name, None)
        elif isinstance(kind, list):
            vals = _typed(d[name], f"{key}.{name}", list)
            d[name] = [_typed(v, f"{key}.{name}[{i}]", kind[0]) for i, v in enumerate(vals)]
        else:
            d[name] = _typed(d[name], f"{key}.{name}", kind)
    return d


def _options(raw: dict) -> dict:
    """The checked options, each absent one at its default; a value out of its
    range raises ConfigurationError naming it."""
    options = _section(raw, "options", {k: o[0] for k, o in _OPTIONS.items()})
    for name, (_, default, ok, need) in _OPTIONS.items():
        if name not in options:
            options[name] = copy.copy(default)
        elif not ok(options[name]):
            raise ConfigurationError(
                f"config field 'options.{name}' must be {need}, got {options[name]!r}")
    return options


# The top-level entries of a config.
_TOP_LEVEL = ("experiment", "seed", "grid", "regions", "cutoff_taper_cells", "robust",
             "carleman", "penalty", "solver", "data", "options")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build the experiment config; a missing field, an unknown one, or one of
    the wrong JSON type raises ConfigurationError naming its path."""
    raw = _known(_typed(raw, "(top level)", dict), "", _TOP_LEVEL)
    experiment = _field(raw, "experiment", "", str)
    # the dataclasses hold the defaults of the optional section entries
    grid = GridSpec(**_section(raw, "grid", {"nx": int, "ny": int, "Lx": float, "Ly": float,
                                             "nt": int, "T": float}, ("nx", "ny", "nt", "T")))
    rd = _known(_field(raw, "regions", "", dict), "regions", ("omega", "O", "Od", "omega0"))

    def region(key):
        vals = _field(rd, key, "regions", list)
        if len(vals) != 4:
            raise ConfigurationError(f"regions.{key} must be [x0, x1, y0, y1]")
        return Region(*[_typed(v, f"regions.{key}[{i}]") for i, v in enumerate(vals)])

    rb = _section(raw, "robust", {"ell": float, "gamma": float, "mu": float}, ("ell", "gamma"))
    cl = _section(raw, "carleman", {"lam": float, "s": float, "a0": float, "m0": float})
    pen = _section(raw, "penalty", {"epsilon": float, "cg_tol": float, "cg_max": int,
                                    "epsilon_schedule": [float]})
    sv = _section(raw, "solver", {"convection_on": bool, "picard_tol": float,
                                  "picard_max": int, "relax": float, "small_data_delta": float})
    if experiment == "convergence" and sv.get("convection_on"):
        raise ConfigurationError("config field 'solver.convection_on' must be false for the "
                                 "convergence experiment: its manufactured forcing is Stokes-only")
    options = _options(raw)
    data = _section(raw, "data", _DATA_KINDS)
    if data.get("y0_kind", "eddy") not in _Y0_KINDS:
        raise ConfigurationError(f"config field 'data.y0_kind' must be one of {_Y0_KINDS}, "
                                 f"got {data['y0_kind']!r}")
    return ExperimentConfig(
        experiment=experiment,
        seed=_field(raw, "seed", "", int),
        grid=grid,
        omega=region("omega"),
        follower_set=region("O"),
        obs_set=region("Od"),
        inner_set=region("omega0"),
        cutoff_taper_cells=_field(raw, "cutoff_taper_cells", "", default=4.0),
        robust=RobustParams(**rb),
        carleman=CarlemanParams(**{"lam": 2.0, "s": 3.0, **cl}),
        penalty=PenaltyConfig(**pen),
        solver=SolverOptions(**sv),
        data=data,
        options=options,
        raw=raw,
    )


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from e
    return config_from_dict(raw)


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
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={self.config_hash}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                # float() first: numpy 2 reprs its scalars as "np.float64(...)"
                fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        self.append(str(path))

    def trajectory(self, name: str, traj: Trajectory) -> None:
        self.extend(str(p) for p in fieldio.write_trajectory(self.outdir / "fields", name, traj))


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
    res = solve_null_control_nonlinear(
        prob, cfg.penalty,
        outer_tol=cfg.options["outer_tol"],
        outer_max=cfg.options["outer_max"],
    )
    lin_prob = dataclasses.replace(prob, opts=dataclasses.replace(cfg.solver, convection_on=False))
    lin = solve_null_control_cg(lin_prob, cfg.penalty)
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
    g = cfg.grid
    T = g.T
    opts = cfg.options
    metrics = {
        "alpha_ratio_large_lam": alpha_ratio(50.0),
        "alpha_ratio_small_lam": alpha_ratio(1e-6),
    }
    # weight table for inspection
    nrow = 64
    guard = T / (2 * nrow)
    ts = np.linspace(guard, T - guard, nrow)

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
        rep = check_weight_domination(dataclasses.replace(p, lam=lam), T, 0.0, 0.0, eps)
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
    # the projection ignores the normal faces that closed_noise zeroes
    noise = closed_noise(g, rng_stream(cfg.seed, "laplacian-samples"),
                         opts["n_laplacian_samples"])
    us = [project_div_free(VelocityField.from_packed(g, row)) for row in noise]
    s5 = dataclasses.replace(p, s=opts["laplacian_s"])
    b1, b2 = check_laplacian_weight_bound(s5, T, 0.0, 0.0, us, cfg.omega, n_times=(128, 256))
    metrics["laplacian_bound_max"] = b1.max_ratio
    metrics["laplacian_bound_max_fine"] = b2.max_ratio
    metrics["laplacian_bound_stability"] = (
        b2.max_ratio / b1.max_ratio if b1.max_ratio > 0 else 1.0
    )
    # observability constant stability under sample doubling
    coup = cfg.problem().coupling
    n_obs = opts["n_observability_samples"]
    rep1 = observability_ratio(p, coup, cfg.omega, n_obs,
                               rng=rng_stream(cfg.seed, "observability-a"), opts=cfg.solver)
    rep2 = observability_ratio(p, coup, cfg.omega, 2 * n_obs,
                               rng=rng_stream(cfg.seed, "observability-b"), opts=cfg.solver)
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
    is read: :func:`~stackstokes.stokes.solve_forward_terminal` samples and
    marches the manufactured forcing a block of levels at a time, so no size
    holds its forcing or its states over the whole horizon.  Neighbouring
    errors give the ratios, about 4 for a second-order scheme.
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
        ex = VelocityField.from_functions(
            g, lambda x, y: u(x, y, T), lambda x, y: v(x, y, T)
        )
        e = norm(solve_forward_terminal(y0, fu, fv, cfg.solver) - ex)
        errs.append(e)
        rows.append((nx, nt, e))
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


def run_experiment(cfg: ExperimentConfig, out_root=None) -> RunRecord:
    """Dispatch the configured experiment and persist manifest + artifacts."""
    if out_root is None:
        out_root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    h = cfg.config_hash()
    outdir = Path(out_root) / f"{cfg.experiment}-{h[:12]}"
    outdir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    incomplete = True
    metrics: dict = {}
    arts = _Artifacts(outdir, h)
    try:
        metrics = _PIPELINES[cfg.experiment](cfg, arts)
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
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, default=repr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
