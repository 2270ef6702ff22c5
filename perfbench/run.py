#!/usr/bin/env python3
"""zkleak benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; zkleak is imported from ``src/``.
Every operation is what ``zkleak --format json --metrics inline DIR``
does: ``zkleak.cli.main`` is called in this process on files written
once to a scratch directory, and its JSON output is checked against the
generator's expected claims.  One caller, one operation at a time.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it alternates untraced and traced runs at the
16x size and reports per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--detail FILE`` also writes samples, quartiles, defect
digests and any verdict mismatches to FILE.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


SETUP_LAUNCHES = 21
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import zkleak
zkleak.builtin_patterns()
print(time.perf_counter() - t0)
"""
# One 16x run in a fresh process; the analysis output goes to /dev/null
# as it would to a pipe, and the peak resident set goes to stderr.
RSS_CODE = """\
import resource, sys
from zkleak import cli
rc = cli.main(["--format", "json", "--metrics", "inline", sys.argv[1]])
print("rss", rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      file=sys.stderr)
"""
CHILD_TIMEOUT_S = 120
# Timed runs in one round, repeated until the measuring time is up (at
# least one whole round).  The small sizes are cheap and noisier, so they
# run more often; their medians anchor scale_exp.
ROUND = (1, 1, 1, 1, 4, 4, 16)


def import_cli():
    """zkleak.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        from zkleak import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import zkleak from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: zkleak came from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# Verdict oracle
# ---------------------------------------------------------------------------

class Verdicts:
    """Claims of one operation scored against the generator's answers.

    A claim matches an expected entry with the same file and kind whose
    line differs by at most one; each entry matches at most one claim.
    """

    def __init__(self, claims: List[dict], root: str,
                 expected: List[workloads.Expect]) -> None:
        pending: Dict[Tuple[str, str], List[int]] = {}
        for e in expected:
            pending.setdefault((e.file, e.kind), []).append(e.line)
        self.expected = len(expected)
        self.matched = 0
        self.unexpected: List[str] = []
        rows = []
        for claim in claims:
            rel = os.path.relpath(claim["file"], root).replace(os.sep, "/")
            rows.append((rel, claim["line"], claim["kind"], claim["function"],
                         json.dumps(claim["pathC"])))
            lines = pending.get((rel, claim["kind"]), [])
            near = [ln for ln in lines if abs(ln - claim["line"]) <= 1]
            if near:
                lines.remove(min(near, key=lambda ln: abs(ln - claim["line"])))
                self.matched += 1
            else:
                self.unexpected.append(f"{rel}:{claim['line']}: {claim['kind']}")
        self.missed = [f"{file}:{line}: {kind}"
                       for (file, kind), lines in sorted(pending.items())
                       for line in lines]
        self.claims = len(claims)
        self.digest = hashlib.sha256(
            "\n".join(":".join(map(str, r)) for r in sorted(rows)).encode()
        ).hexdigest()[:16]

    @property
    def exact(self) -> bool:
        return not self.missed and not self.unexpected


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.cli = import_cli()
        self.seconds = seconds
        self.work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        self.corpora: Dict[int, workloads.Corpus] = {}
        self.dirs: Dict[int, str] = {}
        for scale in workloads.SCALES:
            corpus = workloads.generate(workload, seed, scale, ROOT)
            path = os.path.join(self.work, f"x{scale}")
            for rel, text in corpus.files:
                target = os.path.join(path, rel)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(text)
            self.corpora[scale] = corpus
            self.dirs[scale] = path
        self.attempted = 0
        self.failed = 0
        self.matched = 0
        self.scored = 0
        self.problems: List[str] = []
        self.digests: Dict[int, set] = {scale: set() for scale in self.dirs}
        self.last_claims = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one operation ----------------------------------------------------------

    def operate(self, scale: int, tracer=None) -> Tuple[float, Optional[str]]:
        """Run the CLI once on the *scale* corpus; (seconds, digest or None).

        Starts from a collected heap and keeps nothing of the previous
        operation alive, so each run pays for its own garbage only.
        """
        self.attempted += 1
        argv = ["--format", "json", "--metrics", "inline", self.dirs[scale]]
        out = io.StringIO()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a crash is a failed operation, not a stop
            self.failed += 1
            self.problems.append(f"x{scale}: raised {exc!r}")
            return math.nan, None
        finally:
            if tracer is not None:
                lost = tracer.uninstall()
                if lost:
                    self.failed += 1
                    self.problems.append(f"not restored: {lost}")
        return elapsed, self._check(scale, rc, out.getvalue())

    def _check(self, scale: int, rc: int, text: str) -> Optional[str]:
        corpus = self.corpora[scale]
        try:
            claims = json.loads(text)["defects"]
        except (ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"x{scale}: unreadable output ({exc})")
            return None
        v = Verdicts(claims, self.dirs[scale], corpus.expected)
        self.matched += v.matched
        self.scored += v.expected + len(v.unexpected)
        self.digests[scale].add(v.digest)
        self.last_claims = v.claims
        if not v.exact or rc != (1 if v.claims else 0):
            self.failed += 1
            self.problems.append(
                f"x{scale}: exit {rc}, {v.matched}/{v.expected} matched; "
                f"missed {v.missed[:5]} unexpected {v.unexpected[:5]}")
        return v.digest

    def verdicts_ok(self) -> float:
        return self.matched / self.scored if self.scored else 1.0

    # -- child processes --------------------------------------------------------

    def setup_seconds(self) -> List[float]:
        samples = []
        for i in range(SETUP_LAUNCHES + 1):
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                                  env=child_env(), cwd=ROOT, check=True,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if i:  # the first launch also writes the bytecode caches
                samples.append(float(proc.stdout.split()[-1]))
        return samples

    def peak_rss_mb(self) -> float:
        self.attempted += 1
        proc = subprocess.run([sys.executable, "-c", RSS_CODE, self.dirs[16]],
                              env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        fields = last[0].split()
        expect_rc = 1 if self.corpora[16].expected else 0
        if proc.returncode or fields[:2] != ["rss", str(expect_rc)]:
            self.failed += 1
            self.problems.append(f"rss child: exit {proc.returncode}, "
                                 f"{proc.stderr.strip()[-300:]!r}")
            return math.nan
        return int(fields[2]) / 1024


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(samples: List[float]) -> dict:
    values = sorted(x for x in samples if not math.isnan(x))
    if not values:
        return {"n": 0, "median": math.nan, "q1": math.nan, "q3": math.nan}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(bench: Bench) -> Tuple[Dict[str, float], dict]:
    setup = bench.setup_seconds()
    rss = bench.peak_rss_mb()
    times: Dict[int, List[float]] = {scale: [] for scale in workloads.SCALES}
    deadline = time.perf_counter() + bench.seconds
    done = 0
    while done < len(ROUND) or time.perf_counter() < deadline:
        scale = ROUND[done % len(ROUND)]
        times[scale].append(bench.operate(scale)[0])
        done += 1
    lines = {scale: bench.corpora[scale].lines for scale in workloads.SCALES}
    per_scale = {scale: summary(times[scale]) for scale in workloads.SCALES}
    medians = [per_scale[scale]["median"] for scale in workloads.SCALES]
    metrics = {
        "lines_per_s": lines[16] / per_scale[16]["median"],
        "scale_exp": slope([lines[s] for s in workloads.SCALES], medians),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
        "verdicts_ok": bench.verdicts_ok(),
    }
    detail = {"lines": lines,
              "op_seconds": {f"x{s}": per_scale[s] for s in workloads.SCALES},
              "setup_s": summary(setup)}
    return metrics, detail


def layer_metrics(tracer, wall_s: float) -> Dict[str, float]:
    total, own, calls, covered = tracer.layer_times()
    counts = tracer.counts
    node_calls = calls["interp.node_events"]
    match_calls = calls["events.match_in_range"]
    return {
        "tokens.ms": total["detect.tokenize"],
        "tokens.count": counts["tokens.count"],
        "scopes.tree_ms": total["detect.build_scope_tree"],
        "scopes.functions": counts["scopes.functions"],
        "scopes.class_info_ms": total["detect.collect_class_info"],
        "scopes.classes": counts["scopes.classes"],
        "graphs.fcg_ms": total["report.build_fcg"],
        "graphs.edges": counts["graphs.edges"],
        "graphs.rings_ms": total["summaries.find_rings"],
        "graphs.call_sites_ms": total["graphs.Fcg.call_sites"],
        "graphs.call_sites_calls": calls["graphs.Fcg.call_sites"],
        "graphs.cfg_ms": total["summaries.build_cfg"],
        "graphs.cfg_nodes": counts["graphs.cfg_nodes"],
        "events.ms": total["interp.node_events"],
        "events.node_calls": node_calls,
        "events.cache_hit_ratio": (counts["events.cache_hits"] / node_calls
                                   if node_calls else 0.0),
        "events.count": counts["events.count"],
        "patterns.match_calls": match_calls,
        "patterns.hit_ratio": (counts["patterns.match_hits"] / match_calls
                               if match_calls else 0.0),
        "interp.walk_ms": own["summaries.explore"],
        "interp.clone_ms": total["interp.Variant.clone"],
        "interp.variants": counts["interp.variants"],
        "interp.forks": calls["interp.Variant.clone"],
        "interp.budget_merges": counts["interp.budget_merges"],
        "interp.finish_ms": total["summaries.finish_variants"],
        "machine.count": counts["machine.count"],
        "summaries.apply_ms": total["summaries.apply_summary"],
        "summaries.apply_calls": calls["summaries.apply_summary"],
        "summaries.extract_ms": total["summaries.extract_entries"],
        "summaries.entries": counts["summaries.entries"],
        "detect.class_rules_ms": total["report.special_check"],
        "report.score_ms": total["report.score"],
        "report.serialize_ms": total["report.Report.to_json"],
        "cli.ms": own["cli.main"],
        "defects.dedup_ms": total["report.dedup_and_sort"],
        "gc.pause_ms": tracer.gc_ms,
        "gc.gen2": tracer.gc_gen2,
        "trace.coverage": covered / (wall_s * 1000),
    }


def traced(bench: Bench) -> Tuple[Dict[str, float], dict]:
    from spans import Tracer

    layers: Dict[int, List[Dict[str, float]]] = {s: [] for s in workloads.SCALES}
    plain: List[float] = []
    traced_walls: List[float] = []

    def traced_op(scale: int) -> Optional[str]:
        tracer = Tracer()
        wall, digest = bench.operate(scale, tracer)
        if tracer.missing:  # their layers read 0; the verdicts still count
            print(f"perfbench: entry points not found: {tracer.missing}",
                  file=sys.stderr)
        if digest is not None:
            found = layer_metrics(tracer, wall)
            found["defects.claims"] = bench.last_claims
            layers[scale].append(found)
            if scale == 16:
                traced_walls.append(wall)
        return digest

    for scale in (1, 4):
        traced_op(scale)
    deadline = time.perf_counter() + bench.seconds
    while True:
        wall, plain_digest = bench.operate(16)
        plain.append(wall)
        traced_digest = traced_op(16)
        if traced_digest != plain_digest:
            bench.failed += 1
            bench.problems.append("traced defects differ from untraced ones")
        if time.perf_counter() >= deadline:
            break

    def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
        return {name: statistics.median(r[name] for r in rows)
                for name in (rows[0] if rows else ())}

    by_scale = {s: medians(layers[s]) for s in workloads.SCALES}
    metrics = dict(by_scale[16])
    metrics["trace.overhead"] = (summary(traced_walls)["median"]
                                 / summary(plain)["median"] - 1)
    call_sites = [by_scale[s].get("graphs.call_sites_ms", 0.0)
                  for s in workloads.SCALES]
    metrics["graphs.call_sites_exp"] = (
        slope([bench.corpora[s].lines for s in workloads.SCALES], call_sites)
        if all(ms > 0 for ms in call_sites) else math.nan)
    detail = {"layers_by_scale": {f"x{s}": by_scale[s] for s in workloads.SCALES},
              "untraced_s": summary(plain), "traced_s": summary(traced_walls)}
    return metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="FILE",
                        help="also write samples, digests and mismatches here")
    args = parser.parse_args(argv)
    if not os.path.isdir(workloads.fixture_dir(ROOT)) or not os.path.isdir(SRC):
        print(f"perfbench: {ROOT} is not a zkleak checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        measure = traced if args.trace else end_to_end
        metrics, detail = measure(bench)
    finally:
        bench.close()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name in units:
        if math.isnan(metrics.get(name, math.nan)):
            # Every operation behind it failed (already counted), or a
            # traced entry point is gone from the program.
            print(f"perfbench: {name}: no sample, reported as 0",
                  file=sys.stderr)
            metrics[name] = 0.0
    drift = [f"x{s}" for s, found in bench.digests.items() if len(found) > 1]
    if drift:
        bench.failed += 1
        bench.problems.append(f"defect list changed between repeats: {drift}")
    correct = bench.failed == 0
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    degraded = bench.corpora[16].degraded
    if degraded:
        print(f"perfbench: {len(degraded)} claims at x16 differ between the "
              f"plan and the path budget rule (listed with --detail)",
              file=sys.stderr)
    if args.detail:
        record = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "run_seconds": args.seconds,
            "correct": correct, "attempted": bench.attempted,
            "failed": bench.failed,
            "fail_share": bench.failed / bench.attempted,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "digests": {f"x{s}": sorted(found)
                        for s, found in bench.digests.items()},
            "expected": {f"x{s}": dict(c.kind_counts())
                         for s, c in bench.corpora.items()},
            "problems": bench.problems,
            "budget_degraded_x16": degraded,
            **detail,
        }
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
