"""End-to-end runs, scoring and serialization.

``run`` is the one analysis pipeline: it lexes every input, links the
call graph, summarizes and checks, and wraps the verdicts with per-file
stats, phase timings and the intermediate results the inspection dumps
read.  When annotations are supplied the verdict set is scored
against them: a claim matches an annotation when file and kind agree
and the lines differ by at most one.

Annotations live either inline in the sources (``// EXPECT-LEAK: Kind``
for a real defect, ``// EXPECT-FP: Kind`` for a line the tool is known
to flag wrongly) or in a JSON sidecar.

The false-positive rate is FC/C (false claims over claims) and the
false-negative rate is |actC - C| / actC; both raise when their
denominator is zero instead of inventing a number.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .defects import Defect, DefectKind, dedup_and_sort
from .detect import FileUnit, load_source, special_check
from .graphs import Fcg, build_fcg
from .interp import PATH_BUDGET
from .patterns import DefectPattern, catalog_patterns
from .summaries import SummaryRun, update_all

VERSION = "0.1.0"


class DivisionByZeroDefects(ArithmeticError):
    """False-positive rate requested with zero claims."""


class DivisionByZeroActual(ArithmeticError):
    """False-negative rate requested with zero annotated defects."""


def compute_fpr(claims: int, false_claims: int) -> float:
    if claims == 0:
        raise DivisionByZeroDefects("no claims; false-positive rate undefined")
    return false_claims / claims


def compute_fnr(actual: int, claims: int) -> float:
    if actual == 0:
        raise DivisionByZeroActual("no actual defects; false-negative rate undefined")
    return abs(actual - claims) / actual


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Annotation:
    file: str
    line: int
    kind: str
    expect_fp: bool = False


_ANN_RE = re.compile(r"//\s*EXPECT-(LEAK|FP):\s*([A-Za-z]+)")


def parse_annotations(text: str, path: str) -> List[Annotation]:
    out: List[Annotation] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _ANN_RE.search(line)
        if m:
            out.append(Annotation(path, lineno, m.group(2),
                                  expect_fp=m.group(1) == "FP"))
    return out


def load_annotation_file(path: str) -> List[Annotation]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    records = data.get("annotations", data) if isinstance(data, dict) else data
    out = []
    for rec in records:
        fp = rec.get("fp", rec.get("expectFp", rec.get("expectFalsePositive", False)))
        out.append(Annotation(rec["file"], int(rec["line"]), rec["kind"], bool(fp)))
    return out


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    claims: int
    false_claims: int
    actual: int
    matched: int
    missed: int
    fpr: Optional[float]
    fnr: Optional[float]

    def to_json(self) -> dict:
        return {"C": self.claims, "FC": self.false_claims,
                "actC": self.actual, "matched": self.matched,
                "missed": self.missed, "fpr": self.fpr, "fnr": self.fnr}


def score(defects: Sequence[Defect], annotations: Sequence[Annotation]) -> Metrics:
    """Match claims to annotations: same file and kind, lines within 1."""
    claims = [d for d in defects if not d.is_warning()]
    available = list(annotations)
    matched = 0
    fp_matched = 0
    unmatched_claims = 0
    for claim in sorted(claims, key=lambda d: d.sort_key()):
        best = None
        for ann in available:
            if (ann.file == claim.file and ann.kind == claim.kind.value
                    and abs(ann.line - claim.line) <= 1):
                if best is None or abs(ann.line - claim.line) < abs(best.line - claim.line):
                    best = ann
        if best is None:
            unmatched_claims += 1
            continue
        available.remove(best)
        if best.expect_fp:
            fp_matched += 1
        else:
            matched += 1

    actual = sum(1 for a in annotations if not a.expect_fp)
    missed = sum(1 for a in available if not a.expect_fp)
    c = len(claims)
    fc = fp_matched + unmatched_claims
    fpr = compute_fpr(c, fc) if c else None
    fnr = compute_fnr(actual, c) if actual else None
    return Metrics(c, fc, actual, matched, missed, fpr, fnr)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass
class FileStat:
    path: str
    loc: int
    token_count: int


@dataclass
class Report:
    files: List[FileStat]
    defects: List[Defect]
    warnings: List[Defect]
    metrics: Optional[Metrics]
    phases: Dict[str, float]
    total_ms: float
    units: List[FileUnit]
    fcg: Fcg
    summary_run: SummaryRun

    def to_json(self) -> dict:
        doc = {
            "version": VERSION,
            "files": [{"path": f.path, "loc": f.loc,
                       "tokenCount": f.token_count} for f in self.files],
            "defects": [_defect_json(d) for d in self.defects],
            "warnings": [_defect_json(d) for d in self.warnings],
            "timing": {"phases": {k: max(round(v, 3), 0.001)
                                  for k, v in self.phases.items()},
                       "totalMs": max(round(self.total_ms, 3), 0.001,
                                      *(round(v, 3) for v in self.phases.values()))},
        }
        if self.metrics is not None:
            doc["metrics"] = self.metrics.to_json()
        return doc

    def render_text(self) -> str:
        lines = []
        for d in self.defects + self.warnings:
            lines.append(d.render())
        if self.metrics is not None:
            m = self.metrics
            fpr = "n/a" if m.fpr is None else f"{m.fpr:.5f}"
            fnr = "n/a" if m.fnr is None else f"{m.fnr:.5f}"
            lines.append(f"metrics: claims={m.claims} false={m.false_claims} "
                         f"actual={m.actual} matched={m.matched} "
                         f"missed={m.missed} fpr={fpr} fnr={fnr}")
        total_loc = sum(f.loc for f in self.files)
        lines.append(f"checked {len(self.files)} file(s), {total_loc} lines: "
                     f"{len(self.defects)} defect(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines)


def _defect_json(d: Defect) -> dict:
    return {"kind": d.kind.value, "file": d.file, "line": d.line,
            "function": d.func, "message": d.message,
            "pathC": [[guard, arm] for guard, arm in d.path_c],
            "trace": list(d.trace)}


def run(sources: Sequence[Tuple[str, str]],
        catalog: Optional[Sequence[DefectPattern]] = None,
        strict: bool = False,
        annotations: Optional[Sequence[Annotation]] = None,
        inline_annotations: bool = False,
        budget: int = PATH_BUDGET) -> Report:
    """Analyze (path, text) pairs and assemble a report."""
    catalog = catalog_patterns(catalog)
    t_start = time.perf_counter()
    phases: Dict[str, float] = {}

    t0 = time.perf_counter()
    units = [load_source(path, text) for path, text in sources]
    phases["frontendMs"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    pairs = [(u.root, u.stream) for u in units]
    fcg = build_fcg(pairs)
    phases["linkMs"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    summary_run = update_all(pairs, fcg, catalog, strict, budget)
    phases["analyzeMs"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    defects = list(summary_run.defects)
    defects.extend(special_check(units, catalog))
    defects.extend(fcg.warnings)
    for unit in units:
        for diag in unit.stream.diagnostics:
            if diag.code in ("UnbalancedBraces", "UnbalancedParens"):
                defects.append(Defect(
                    kind=DefectKind.UNBALANCED_BRACES_WARNING,
                    file=unit.path, line=diag.line, func="",
                    message=diag.message))
    defects = dedup_and_sort(defects)
    phases["classesMs"] = (time.perf_counter() - t0) * 1000

    all_annotations: List[Annotation] = list(annotations or [])
    if inline_annotations:
        for path, text in sources:
            all_annotations.extend(parse_annotations(text, path))
    metrics = score(defects, all_annotations) if all_annotations else None

    files = [FileStat(u.path, u.stream.loc_count, len(u.stream)) for u in units]
    return Report(
        files=files,
        defects=[d for d in defects if not d.is_warning()],
        warnings=[d for d in defects if d.is_warning()],
        metrics=metrics,
        phases=phases,
        total_ms=(time.perf_counter() - t_start) * 1000,
        units=units,
        fcg=fcg,
        summary_run=summary_run,
    )
