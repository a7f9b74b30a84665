"""Command line interface: validate configs, run experiments, inspect runs.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, NumericalError
from .harness import (
    EXPERIMENTS,
    OUTPUT_ROOT_ENV,
    _writing,
    default_config_dict,
    parse_config,
    read_json,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stackstokes",
        description="Robust leader/follower control experiments for 2D Stokes flow",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument(
        "--out", default=None,
        help=f"output root directory (default: ${OUTPUT_ROOT_ENV} or ./runs)",
    )

    val = sub.add_parser("validate", help="parse and validate a config file")
    val.add_argument("config", help="path to a JSON experiment config")

    rep = sub.add_parser("report", help="summarize a finished run directory")
    rep.add_argument("run_dir", help="run directory containing manifest.json")

    init = sub.add_parser("init", help="write a template config for an experiment")
    init.add_argument("experiment", choices=EXPERIMENTS)
    init.add_argument("path", help="where to write the template JSON")
    return ap


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    record = run_experiment(cfg, out_root=args.out)
    print(f"experiment : {record.experiment}")
    print(f"config hash: {record.config_hash}")
    print(f"run dir    : {record.run_dir}")
    for key, val in sorted(record.metrics.items()):
        print(f"  {key} = {val}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    print(f"config OK: experiment={cfg.experiment} hash={cfg.config_hash()[:12]}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.run_dir) / "manifest.json"
    data = read_json(path, "manifest")
    if not isinstance(data, dict):
        raise ConfigurationError(f"manifest {path} must hold a JSON object")
    for key in ("experiment", "config_hash", "started", "finished", "incomplete"):
        if key not in data:
            raise ConfigurationError(f"manifest {path} lacks the key {key!r}")
    for key, kind, what in (("metrics", dict, "an object"), ("artifacts", list, "a list")):
        if not isinstance(data.get(key, kind()), kind):
            raise ConfigurationError(f"manifest {path} must hold {key!r} as {what}")
    print(f"experiment : {data['experiment']}")
    print(f"config hash: {data['config_hash']}")
    print(f"started    : {data['started']}")
    print(f"finished   : {data['finished']}")
    print(f"incomplete : {data['incomplete']}")
    print("metrics:")
    for key, val in sorted(data.get("metrics", {}).items()):
        print(f"  {key} = {val}")
    print(f"artifacts  : {len(data.get('artifacts', []))} files")
    return EXIT_OK


def _cmd_init(args) -> int:
    cfg = default_config_dict(args.experiment)
    with _writing(args.path), open(args.path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    print(f"wrote template config for '{args.experiment}' to {args.path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "report": _cmd_report,
        "init": _cmd_init,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
