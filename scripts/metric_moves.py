"""The largest relative move of every metric of the shipped configs and the benchmark
pipelines between two checkouts.

Usage (from the repository root):

    python3 scripts/metric_moves.py --root A --root B [--out FILE]

One interpreter, with BLAS threads pinned to 1 as in the benchmark, loads the
``stackstokes`` package of each root from ``ROOT/src`` under a name of its own
(``checkouts.load``) and runs every config in ``ROOT/configs`` through that
copy's ``harness.parse_config`` and ``harness.run_experiment`` into a temporary
directory.  It runs the four pipelines of the benchmark the same way, each at
the seeds ``SEEDS``, under the name ``<pipeline>-<seed>``: their config dicts
come from ``perfbench/workloads.py`` of the checkout holding this script,
through each root's ``harness.config_from_dict``, so both roots run the same
configs, among them the 128 x 128 grid of ``mms-forward`` that no shipped
config reaches.  The metrics of each config are read as the manifest records
them (through JSON), flattened to leaves (``weighted_norm_log10.z_l2``,
``history[2].cg_iters``) and compared leaf by leaf, B against A:

* ``moves``: the relative change |b - a| / |a| of every numeric leaf (0 where
  both are equal, NaN and infinities included; inf where a is 0 and b is not);
* ``max``: the leaf with the largest relative change, and that change;
* ``integer_moves``: every integer or boolean leaf whose value differs, such
  as an iteration count;
* ``only_in_a``, ``only_in_b``: leaves that one root reports and the other
  does not, and ``configs_only_in_a``/``_b`` likewise for whole configs.

The table goes to ``--out`` as JSON (default: standard output), and a summary
line per config to standard error.  The root of an earlier commit is made as
a git checkout of it (``checkouts.py`` gives the commands).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from checkouts import load  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# the benchmark's seed and its hold-out seed
SEEDS = (20240, 7919)


def measure(root: Path, name: str) -> dict:
    """{config name: metrics} of every shipped config of the checkout at ``root``
    and of every benchmark pipeline at ``SEEDS``, run by its package loaded as
    ``name``."""
    harness = load(root, name).harness
    configs = {path.stem: harness.parse_config(path)
               for path in sorted((root / "configs").glob("*.json"))}
    for pipeline, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            configs[f"{pipeline}-{seed}"] = harness.config_from_dict(build(seed))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, cfg in configs.items():
            metrics = harness.run_experiment(cfg, Path(tmp) / stem).metrics
            out[stem] = json.loads(json.dumps(metrics, default=repr))
    return out


def flatten(obj, prefix: str = "") -> dict:
    """The leaves of nested dicts and lists, keyed by their dotted path."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    leaves = {}
    for key, value in items:
        leaves.update(flatten(value, key))
    return leaves


def relative(a, b) -> float:
    """|b - a| / |a|, 0 for equal values (NaN and infinities included)."""
    if a == b or (isinstance(a, float) and isinstance(b, float)
                  and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a) if a != 0 else math.inf


def compare(a: dict, b: dict) -> dict:
    """The per-leaf moves of the metrics ``b`` against ``a``."""
    fa, fb = flatten(a), flatten(b)
    moves, integer_moves = {}, []
    for key in sorted(fa.keys() & fb.keys()):
        x, y = fa[key], fb[key]
        if isinstance(x, bool) or isinstance(y, bool) or (isinstance(x, int)
                                                           and isinstance(y, int)):
            if x != y:
                integer_moves.append({"metric": key, "a": x, "b": y})
        elif isinstance(x, (int, float)) and isinstance(y, (int, float)):
            moves[key] = relative(float(x), float(y))
        elif x != y:
            integer_moves.append({"metric": key, "a": x, "b": y})
    worst = max(moves.items(), key=lambda kv: kv[1], default=(None, 0.0))
    return {"max": {"metric": worst[0], "relative": worst[1]},
            "integer_moves": integer_moves,
            "only_in_a": sorted(fa.keys() - fb.keys()),
            "only_in_b": sorted(fb.keys() - fa.keys()),
            "moves": moves}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, action="append")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if not args.root or len(args.root) != 2:
        p.error("give exactly two --root")
    a, b = (measure(r.resolve(), f"stackstokes_{i}") for i, r in enumerate(args.root))
    table = {"script": "scripts/metric_moves.py", "a": str(args.root[0]),
             "b": str(args.root[1]),
             "configs_only_in_a": sorted(a.keys() - b.keys()),
             "configs_only_in_b": sorted(b.keys() - a.keys()),
             "configs": {name: compare(a[name], b[name]) for name in sorted(a.keys() & b.keys())}}
    for name, row in table["configs"].items():
        flags = f", integer moves: {row['integer_moves']}" if row["integer_moves"] else ""
        print(f"{name}: max {row['max']['relative']:.3g} ({row['max']['metric']}){flags}",
              file=sys.stderr)
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
