"""Checks of the benchmark itself: generators, oracle, tracer, output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = sorted(workloads.GENERATORS)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7, 4, ROOT)
    again = workloads.generate(name, 7, 4, ROOT)
    other = workloads.generate(name, 8, 4, ROOT)
    assert first.files == again.files
    assert first.expected == again.expected
    assert first.files != other.files
    assert first.planned == other.planned
    assert len(first.files) == len(other.files)


@pytest.mark.parametrize("name", WORKLOADS)
def test_scales_multiply_the_units(name):
    small = workloads.generate(name, 3, 1, ROOT)
    large = workloads.generate(name, 3, 4, ROOT)
    assert 3.5 * small.lines < large.lines < 4.5 * small.lines
    for kind, count in small.planned.items():
        assert large.planned[kind] >= 3 * count


def test_fanout_budget_rule_matches_the_plan_when_paths_are_unbounded():
    rng = random.Random(11)
    merged = 0
    for idx in range(48):
        allocs, forks, tail, truth = workloads._fanout_function(
            workloads._Writer(), rng, idx)
        assert workloads._simulate(allocs, forks, tail, float("inf")) == truth
        paths = 1
        for fork in forks:
            paths *= fork.ways
        if paths > workloads.PATH_BUDGET:
            merged += 1
        else:
            assert workloads._simulate(allocs, forks, tail,
                                       workloads.PATH_BUDGET) == truth
    assert merged, "no generated function exceeds the path budget"


def test_oracle_counts_misses_and_extra_claims():
    expected = [workloads.Expect("a.c", "MissingRelease", 10),
                workloads.Expect("a.c", "DoubleFree", 20)]
    claims = [{"file": "/w/a.c", "line": 11, "kind": "MissingRelease",
               "function": "f", "pathC": []},
              {"file": "/w/a.c", "line": 30, "kind": "DoubleFree",
               "function": "f", "pathC": []}]
    v = run.Verdicts(claims, "/w", expected)
    assert v.matched == 1
    assert v.missed == ["a.c:20: DoubleFree"]
    assert v.unexpected == ["a.c:30: DoubleFree"]
    assert not v.exact


@pytest.fixture(scope="module", params=WORKLOADS)
def bench(request):
    b = run.Bench(request.param, 5, 0.0)
    yield b
    b.close()


def test_smallest_size_reproduces_every_expected_verdict(bench):
    seconds, digest = bench.operate(1)
    assert digest is not None
    assert bench.failed == 0, bench.problems
    assert bench.verdicts_ok() == 1.0


def test_traced_run_matches_and_restores_every_entry_point(bench):
    import zkleak.detect
    import zkleak.graphs
    import zkleak.tokens

    original_call_sites = vars(zkleak.graphs.Fcg)["call_sites"]
    _, plain = bench.operate(1)
    tracer = spans.Tracer()
    _, traced = bench.operate(1, tracer)
    assert traced == plain
    assert not tracer.missing
    assert zkleak.detect.tokenize is zkleak.tokens.tokenize
    assert vars(zkleak.graphs.Fcg)["call_sites"] is original_call_sites
    for module_name, attr, _observe, _before in spans.POINTS:
        owner, name = spans._owner(module_name, attr)
        assert not hasattr(vars(owner)[name], "__wrapped__"), attr
    total, _own, calls, covered = tracer.layer_times()
    assert calls["cli.main"] == 1
    assert 0 < covered <= total["cli.main"]


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric_with_its_unit(trace, section, capsys,
                                                    tmp_path):
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    detail = tmp_path / "detail.json"
    doc = _result(["--workload", "fixture-mix", "--seed", "2", "--seconds",
                   "0", "--trace", str(trace), "--detail", str(detail)])
    assert "no sample" not in capsys.readouterr().err
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == spec
    record = json.loads(detail.read_text())
    assert record["fail_share"] == 0.0
    assert record["metrics"] == doc["metrics"]
    assert all(isinstance(m["value"], (int, float))
               for m in doc["metrics"].values())


def test_benchmark_spec_names_the_workloads_run_py_knows():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == [
        "synth-scale", "call-chains", "branch-fanout", "fixture-mix"]
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.GENERATORS)
