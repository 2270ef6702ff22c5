"""Layer spans recorded from outside zkleak.

``Tracer.install`` rebinds each public entry point in ``POINTS`` where
its callers look it up (a module global or a class attribute) to a
wrapper that records a span, then ``uninstall`` puts the original
objects back.  The program itself is not changed.

A span is (name, start, end, parent).  Spans live in flat arrays until
the run ends, so that recording them creates no objects for the cyclic
garbage collector to scan.  Garbage-collector pauses are recorded from
``gc.callbacks``; a pause also stays inside whichever span was open.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


def _explore_counts(counts: Counter, _args, outcome, _pre) -> None:
    counts["interp.variants"] += len(outcome.variants)
    counts["interp.budget_merges"] += bool(outcome.path_insensitive)
    counts["machine.count"] += len({mid for v in outcome.variants
                                    for mid in v.machines.by_id})


def _node_events_pre(args) -> bool:
    cfg, node = args[0], args[1]
    return node.id in cfg.node_events


def _node_events_counts(counts: Counter, _args, events, cached) -> None:
    if cached:
        counts["events.cache_hits"] += 1
    else:
        counts["events.count"] += len(events)


def _counter(key: str, measure: Callable) -> Callable:
    def observe(counts: Counter, _args, result, _pre) -> None:
        counts[key] += measure(result)
    return observe


# (module, attribute, observer of the result, hook run before the call).
# The attribute is rebound in the module whose code calls it, so a name
# imported with ``from x import f`` is wrapped in the importing module.
POINTS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("zkleak.cli", "main", None, None),
    ("zkleak.detect", "tokenize", _counter("tokens.count", len), None),
    ("zkleak.detect", "build_scope_tree",
     _counter("scopes.functions", lambda root: len(root.function_scopes)), None),
    ("zkleak.detect", "collect_class_info", _counter("scopes.classes", len), None),
    ("zkleak.report", "build_fcg",
     _counter("graphs.edges", lambda fcg: len(fcg.edges)), None),
    ("zkleak.report", "update_all", None, None),
    ("zkleak.report", "special_check", None, None),
    ("zkleak.report", "dedup_and_sort", None, None),
    ("zkleak.report", "score", None, None),
    ("zkleak.report", "Report.to_json", None, None),
    ("zkleak.summaries", "build_cfg",
     _counter("graphs.cfg_nodes", lambda cfg: len(cfg.nodes)), None),
    ("zkleak.summaries", "find_rings", None, None),
    ("zkleak.summaries", "explore", _explore_counts, None),
    ("zkleak.summaries", "extract_entries",
     _counter("summaries.entries", len), None),
    ("zkleak.summaries", "finish_variants", None, None),
    ("zkleak.summaries", "apply_summary", None, None),
    ("zkleak.graphs", "Fcg.call_sites", None, None),
    ("zkleak.interp", "node_events", _node_events_counts, _node_events_pre),
    ("zkleak.events", "match_in_range",
     _counter("patterns.match_hits", bool), None),
    ("zkleak.interp", "Variant.clone", None, None),
)


def _owner(module_name: str, attr: str):
    """(object holding the attribute, attribute name), or (None, name)."""
    *path, name = attr.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None, name
    return owner, name


def span_name(module_name: str, attr: str) -> str:
    return f"{module_name.split('.', 1)[1]}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.gc_ms = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable],
              before: Optional[Callable]) -> Callable:
        code = self._name_ids.setdefault(name, len(self._name_ids))
        name_of, starts, ends, parents = (self.name_of, self.starts,
                                          self.ends, self.parents)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx = len(starts)
            name_of.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result, pre)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_ms += (time.perf_counter() - self._gc_start) * 1000
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def install(self) -> None:
        for module_name, attr, observe, before in POINTS:
            owner, name = _owner(module_name, attr)
            original = None if owner is None else vars(owner).get(name)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(span_name(module_name, attr),
                                            original, observe, before))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> List[str]:
        """Put every original back; return the names that did not come back."""
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        return [f"{getattr(owner, '__name__', owner)}.{name}"
                for owner, name, original in self._saved
                if vars(owner).get(name) is not original]

    # -- analysis -------------------------------------------------------------

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float],
                                   Counter, float]:
        """(inclusive ms, self ms, calls) per span name, and the ms the root
        spans' direct children cover."""
        ids = {code: name for name, code in self._name_ids.items()}
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total: Dict[str, float] = Counter()
        own: Dict[str, float] = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for i in range(n):
            name = ids[self.name_of[i]]
            span = self.ends[i] - self.starts[i]
            total[name] += span * 1000
            own[name] += (span - child[i]) * 1000
            calls[name] += 1
            if self.parents[i] < 0:
                covered += child[i] * 1000
        return total, own, calls, covered
