"""Pair the benchmark runs of two trees and write ``BENCH_<tag>.json``.

From the repository root::

    python tools/bench_pairs.py --base BASE/bench_runs --change CHANGE/bench_runs \\
        --tag fused_step --base-commit SHA --change-commit SHA

``bench/run.py`` writes one ``<workload>-seed<N>-trace<T>/report.json`` per
run under ``bench_runs``.  A run of the base tree and a run of the change
tree with the same workload, seed and trace flag form a pair; runs without
a partner are left out.  The pairs should come from one session on one
machine, interleaved, so that both sides sample the same machine time.

The output holds the machine, both commits, and per workload:

- untraced pairs, for each end-to-end metric of ``BENCHMARK.json``: each
  side's quartiles, the ratio of the medians (change over base), the pairs
  the change won (judged by the metric's ``better``), a verdict against
  the metric's bound, and whether the change beats the base by more than
  the base's interquartile range in the median while winning at least
  nine pairs in ten;
- traced pairs, for each per-layer metric: each side's median and the
  ratio; for ``*.nodes`` metrics these are the tape nodes per step.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reports(runs_dir: str) -> dict:
    """{(workload, seed, trace): report} of every run under ``runs_dir``."""
    out = {}
    for path in sorted(glob.glob(os.path.join(runs_dir, "*", "report.json"))):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        args = report["args"]
        out[(args["workload"], args["seed"], args["trace"])] = report
    return out


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def correct(report: dict) -> bool:
    return not (report.get("failures") or report.get("errors"))


def end_to_end_summary(base: list, change: list, spec: dict) -> dict:
    """Paired values of one metric, ``base[i]`` against ``change[i]``."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    b, c = quartiles(base), quartiles(change)
    # the change's median gain in the metric's better direction, as a
    # share of the base median; negative is a loss
    gain = sign * (c["median"] - b["median"]) / b["median"]
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": b, "change": c,
        "ratio": c["median"] / b["median"],
        "pairs": len(base), "change_wins": int(wins),
        "verdict": "regression" if gain < -spec["bound"] else "within bound",
        "beats_base_spread": bool(wins >= 0.9 * len(base)
                                  and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]),
    }


def compare(base: dict, change: dict, benchmark: dict) -> dict:
    """Per-workload summaries of the paired runs in ``base`` and ``change``,
    each keyed as ``load_reports`` returns them."""
    out: dict = {}
    for key in sorted(set(base) & set(change)):
        workload, seed, trace = key
        entry = out.setdefault(workload, {}).setdefault(
            "traced" if trace else "untraced",
            {"seeds": [], "correct": {"base": True, "change": True}, "pairs": []})
        entry["seeds"].append(seed)
        entry["pairs"].append((base[key], change[key]))
        for side, report in (("base", base[key]), ("change", change[key])):
            entry["correct"][side] = entry["correct"][side] and correct(report)
    for sets in out.values():
        untraced = sets.get("untraced")
        if untraced:
            pairs = untraced.pop("pairs")
            untraced["end_to_end"] = {
                spec["name"]: end_to_end_summary(
                    [b["end_to_end"][spec["name"]] for b, _ in pairs],
                    [c["end_to_end"][spec["name"]] for _, c in pairs], spec)
                for spec in benchmark["end_to_end"]}
        traced = sets.get("traced")
        if traced:
            pairs = traced.pop("pairs")
            layers = {}
            for spec in benchmark["per_layer"]:
                name = spec["name"]
                b = float(np.median([p[0]["per_layer"][name] for p in pairs]))
                c = float(np.median([p[1]["per_layer"][name] for p in pairs]))
                layers[name] = {"unit": spec["unit"], "base": b, "change": c,
                                "ratio": c / b if b else None}
            traced["per_layer"] = layers
    return out


def machine() -> dict:
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "system": platform.platform(), "cpus": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="bench_runs directory of the base tree")
    p.add_argument("--change", required=True, help="bench_runs directory of the change tree")
    p.add_argument("--tag", required=True)
    p.add_argument("--base-commit", default="")
    p.add_argument("--change-commit", default="")
    p.add_argument("--note", default="", help="how the runs were made")
    p.add_argument("--out", help="default: BENCH_<tag>.json at the repository root")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = compare(load_reports(args.base), load_reports(args.change), benchmark)
    if not workloads:
        print("no run of the base tree has a partner in the change tree", file=sys.stderr)
        return 1
    result = {"tag": args.tag, "note": args.note, "machine": machine(),
              "commits": {"base": args.base_commit, "change": args.change_commit},
              "workloads": workloads}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, sets in workloads.items():
        for name, s in sets.get("untraced", {}).get("end_to_end", {}).items():
            print(f"{workload:7s} {name:36s} {s['base']['median']:10.4g} -> "
                  f"{s['change']['median']:10.4g}  x{s['ratio']:.3f}  "
                  f"wins {s['change_wins']}/{s['pairs']}  {s['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
