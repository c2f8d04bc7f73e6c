"""Benchmark of aotlab: one workload per run, closed loop, one process.

    python3 bench/run.py --workload {train,corpus} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``.  BLAS
and every other numeric thread pool run one thread.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import os

# fixed before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, "bench_runs")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "corpus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build_report(run, values: dict, units: dict) -> dict:
    """The final JSON object, over the metrics that ``units`` names."""
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, float("nan"))
        if not math.isfinite(value):
            run.failures.append(f"metric {name} was not measured")
            value = -1.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not (run.failures or run.errors), "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "aotlab")):
        print(f"error: no aotlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import tracing
    import workloads

    out_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run, e2e, layers = workloads.execute(args.workload, args.seed, args.seconds,
                                         bool(args.trace), out_dir)
    if args.trace:
        report = build_report(run, layers, tracing.PER_LAYER_UNITS)
    else:
        report = build_report(run, e2e, workloads.END_TO_END_UNITS)
    ops = " ".join(f"{k}={v}" for k, v in sorted(run.ops.items()))
    print(f"workload {args.workload}: attempted {run.attempted} ({ops}), "
          f"failed {run.failed}")
    print(f"threads: BLAS {os.environ['OPENBLAS_NUM_THREADS']}, build_dataset "
          f"{workloads.BUILD_THREADS}; python {platform.python_version()}, "
          f"numpy {np.__version__}")
    for msg in run.errors + run.failures:
        print(f"FAIL: {msg}")
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "end_to_end": e2e, "per_layer": layers,
                   "samples": {"own": run.own, "side": run.side,
                               "setup_s": run.setup_s},
                   "ops": dict(run.ops), "failures": run.failures,
                   "errors": run.errors}, fh, indent=1)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
