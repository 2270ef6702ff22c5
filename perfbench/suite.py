#!/usr/bin/env python3
"""Every workload, untraced and traced, in one command.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--out FILE]

Runs ``perfbench/run.py`` once per workload with ``--trace 0`` and once
with ``--trace 1``, each in a fresh process, and prints every end-to-end
and per-layer metric with its unit (timings with sample count, median and
quartiles).  ``--out`` writes the collected details as one JSON file, as
in ``perfbench/results/``.

Exits 1 if any run reports ``correct: false`` or ``verdicts_ok`` below
1.0 on a workload whose expected claims are exact (all but
branch-fanout).  On branch-fanout every verdict mismatch is listed with
the planned claims the path budget changes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("synth-scale", "call-chains", "fixture-mix")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, seconds: int, trace: int, scratch: str) -> dict:
    detail = os.path.join(scratch, f"{workload}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--detail", detail],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        raise SystemExit(f"suite: run.py failed on {workload} (trace {trace})")
    with open(detail, encoding="utf-8") as fh:
        return json.load(fh)


def _row(name: str, metric: dict, spread: Optional[dict] = None) -> str:
    text = f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}"
    if spread:
        text += (f"  (n={spread['n']}, median {spread['median']:.6g} s, "
                 f"q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g})")
    return text


def main() -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args()

    results = {}
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            plain = _run(workload, args.seed, args.seconds, 0, scratch)
            layers = _run(workload, args.seed, args.seconds, 1, scratch)
            results[workload] = {"untraced": plain, "traced": layers}
            print(f"{workload} (seed {args.seed}): "
                  f"attempted {plain['attempted'] + layers['attempted']}, "
                  f"fail_share {plain['fail_share']:.4g} untraced, "
                  f"{layers['fail_share']:.4g} traced")
            for name, metric in plain["metrics"].items():
                spread = plain["op_seconds"]["x16"] if name == "lines_per_s" else (
                    plain["setup_s"] if name == "setup_s" else None)
                print(_row(name, metric, spread))
            for name, metric in layers["metrics"].items():
                print(_row(name, metric))
            for digest_scale, found in plain["digests"].items():
                print(f"  defects digest {digest_scale}: {', '.join(found)}")
            for problem in plain["problems"] + layers["problems"]:
                print(f"  MISMATCH {problem}")
            degraded = plain["budget_degraded_x16"]
            if degraded:
                print(f"  {len(degraded)} claims at x16 differ between the plan "
                      f"and the path budget rule, e.g. {degraded[:3]}")
            exact = workload in EXACT
            if not plain["correct"] or not layers["correct"] or (
                    exact and plain["metrics"]["verdicts_ok"]["value"] < 1.0):
                ok = False
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
