"""Benchmark of the stackstokes leader/follower pipelines.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process runs one workload with BLAS and FFT threads pinned to 1.  It
repeats whole rounds until ``--seconds`` have passed and at least three
rounds are done.  A round runs the workload's two pipelines: for each it
builds the seeded config dict, hands it to ``harness.config_from_dict`` and
``harness.run_experiment`` in a temporary directory, and then checks the
outputs (``checks.py``).  A round that raises or fails a check is a failed
operation.  With ``--trace 0`` it prints the end-to-end metrics (set-up time,
pipeline wall time, peak memory); with ``--trace 1`` it alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones, with
the tracing overhead.  The last line of standard output is one JSON object.
See README.md in this directory.
"""

import os

# Pin BLAS/OpenMP threads before numpy is first imported; scipy.fft already
# runs one worker unless asked otherwise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Set-up is timed over this many fresh interpreters (after one untimed start
# that lets the bytecode caches fill) and reported as their median.
SETUP_STARTS = 5
SETUP_TIMEOUT_S = 60
# A run measures at least this many rounds, so that solve_s is a median that
# can set one slow round aside, even where one round takes a third of a run.
MIN_ROUNDS = 3


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    times = []
    for i in range(SETUP_STARTS + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        if i > 0:
            times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_round(raws: list, seed: int, tmp: str, tracer=None):
    """One whole operation: the pipelines (timed) and then their checks."""
    from stackstokes import harness
    import checks
    import workloads

    solve_s = 0.0
    rows = []
    with tempfile.TemporaryDirectory(dir=tmp, prefix="round-") as out_root:
        for raw in raws:
            with tracer if tracer is not None else contextlib.nullcontext():
                # the set-up that setup_s times, here so that the traced round
                # attributes it; the pipeline then finds its tables built
                cfg = harness.config_from_dict(raw)
                workloads.build_problem(cfg)
                t0 = time.perf_counter()
                record = harness.run_experiment(cfg, out_root)
                solve_s += time.perf_counter() - t0
            rows += checks.check(cfg, record, record.run_dir, seed)
    return solve_s, rows


def main(argv=None) -> int:
    if not (SRC / "stackstokes" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import spans
    import workloads

    raws = workloads.config_dicts(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    correct = True
    solve = {False: [], True: []}   # by traced
    layers = []
    last_tracer = None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and attempted % 2 == 1
            tracer = spans.Tracer() if traced else None
            attempted += 1
            t0 = time.perf_counter()
            try:
                solve_s, rows = run_round(raws, args.seed, tmp, tracer)
            except Exception:
                failed += 1
                traceback.print_exc()
                solve[traced].append(time.perf_counter() - t0)
            else:
                solve[traced].append(solve_s)
                bad = [r for r in rows if not r[1]]
                if bad:
                    failed += 1
                    correct = False
                for name, ok, detail in rows:
                    if not ok:
                        print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
                print(f"round {attempted}{' traced' if traced else ''}: "
                      f"solve {solve_s:.4f} s, checks {len(rows) - len(bad)}/{len(rows)} ok",
                      flush=True)
                if traced:
                    layers.append(spans.layer_metrics(tracer.spans))
                    last_tracer = tracer
            if attempted >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break

    if args.trace:
        metrics = {}
        for name, unit in spans.PER_LAYER:
            vals = [m[name] for m in layers]
            if name in spans.COUNT_METRICS:
                if len(set(vals)) > 1:
                    print(f"COUNT DIFFERS between traced rounds {name}: {vals}",
                          file=sys.stderr)
                    correct = False
                value = vals[0] if vals else 0
            else:
                value = statistics.median(vals) if vals else 0.0
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(solve[True]) - statistics.median(solve[False])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * overhead / statistics.median(solve[False]), "unit": "%"}
        if last_tracer is not None:
            last_tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(solve[False]), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
