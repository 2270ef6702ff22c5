"""Scoring, the JSON/text report, and the command line."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import zkleak.cli
import zkleak.report
from zkleak.defects import Defect, DefectKind
from zkleak.cli import main
from zkleak.report import (
    Annotation,
    DivisionByZeroActual,
    DivisionByZeroDefects,
    Metrics,
    compute_fnr,
    compute_fpr,
    load_annotation_file,
    parse_annotations,
    run,
    score,
)

_LEAKY = "void f ( ) {\n  char * p ;\n  p = malloc ( 4 ) ;\n}\n"
_CLEAN = "void f ( ) { char * p ; p = malloc ( 4 ) ; free ( p ) ; }\n"
_COND = ("void f ( int c ) { char * p ; p = malloc ( 4 ) ; "
         "if ( c ) { free ( p ) ; } }\n")


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

def test_false_positive_rate_anchors():
    assert compute_fpr(192, 44) == pytest.approx(0.22917, abs=1e-5)
    assert compute_fpr(36, 6) == pytest.approx(0.16667, abs=1e-5)
    assert compute_fpr(10, 0) == 0.0
    assert compute_fpr(7, 7) == 1.0


def test_false_negative_rate_identities():
    for actual in (1, 7, 100):
        assert compute_fnr(actual, actual) == 0.0
        assert compute_fnr(actual, 0) == 1.0
    assert compute_fnr(10, 7) == pytest.approx(0.3)
    assert compute_fnr(10, 13) == pytest.approx(0.3), "overshoot counts too"


def test_rates_refuse_empty_denominators():
    with pytest.raises(DivisionByZeroDefects):
        compute_fpr(0, 0)
    with pytest.raises(DivisionByZeroActual):
        compute_fnr(0, 3)


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

def test_inline_annotations():
    text = (
        "int a ;\n"
        "char * p = malloc ( 4 ) ; // EXPECT-LEAK: MissingRelease\n"
        "char * q ; // EXPECT-FP: PathMissingRelease\n")
    anns = parse_annotations(text, "x.c")
    assert anns == [
        Annotation("x.c", 2, "MissingRelease", expect_fp=False),
        Annotation("x.c", 3, "PathMissingRelease", expect_fp=True),
    ]


def test_sidecar_accepts_bare_arrays_and_wrapped_objects(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([
        {"file": "a.c", "line": 3, "kind": "MissingRelease"},
        {"file": "a.c", "line": 9, "kind": "DoubleFree", "fp": True},
    ]))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"annotations": [
        {"file": "a.c", "line": 3, "kind": "MissingRelease"},
        {"file": "a.c", "line": 9, "kind": "DoubleFree", "expectFp": True},
    ]}))
    long_key = tmp_path / "long.json"
    long_key.write_text(json.dumps([
        {"file": "a.c", "line": 9, "kind": "DoubleFree",
         "expectFalsePositive": True},
    ]))
    assert load_annotation_file(str(bare)) == load_annotation_file(str(wrapped))
    assert load_annotation_file(str(long_key))[0].expect_fp


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _claim(kind: DefectKind, line: int, file: str = "a.c") -> Defect:
    return Defect(kind=kind, file=file, line=line, func="f", message="m")


def test_score_perfect_match():
    metrics = score([_claim(DefectKind.MISSING_RELEASE, 5)],
                    [Annotation("a.c", 5, "MissingRelease")])
    assert (metrics.claims, metrics.false_claims) == (1, 0)
    assert (metrics.matched, metrics.missed) == (1, 0)
    assert metrics.fpr == 0.0 and metrics.fnr == 0.0


def test_score_line_tolerance_is_exactly_one():
    near = score([_claim(DefectKind.MISSING_RELEASE, 5)],
                 [Annotation("a.c", 6, "MissingRelease")])
    assert near.matched == 1
    far = score([_claim(DefectKind.MISSING_RELEASE, 5)],
                [Annotation("a.c", 7, "MissingRelease")])
    assert far.matched == 0 and far.false_claims == 1 and far.missed == 1


def test_score_prefers_the_nearest_annotation():
    claims = [_claim(DefectKind.MISSING_RELEASE, 5),
              _claim(DefectKind.MISSING_RELEASE, 4)]
    anns = [Annotation("a.c", 4, "MissingRelease"),
            Annotation("a.c", 5, "MissingRelease")]
    metrics = score(claims, anns)
    assert metrics.matched == 2 and metrics.false_claims == 0


def test_score_requires_matching_kind_and_file():
    metrics = score([_claim(DefectKind.DOUBLE_FREE, 5)],
                    [Annotation("a.c", 5, "MissingRelease")])
    assert metrics.false_claims == 1 and metrics.missed == 1
    other_file = score([_claim(DefectKind.MISSING_RELEASE, 5, file="b.c")],
                       [Annotation("a.c", 5, "MissingRelease")])
    assert other_file.false_claims == 1


def test_score_expected_false_positives_count_as_false_claims():
    metrics = score([_claim(DefectKind.PATH_MISSING_RELEASE, 7)],
                    [Annotation("a.c", 7, "PathMissingRelease", expect_fp=True)])
    assert (metrics.claims, metrics.false_claims) == (1, 1)
    assert metrics.actual == 0 and metrics.matched == 0
    assert metrics.fpr == 1.0 and metrics.fnr is None


def test_score_with_no_claims_leaves_fpr_undefined():
    metrics = score([], [Annotation("a.c", 5, "MissingRelease")])
    assert metrics.fpr is None
    assert metrics.fnr == 1.0


def test_score_ignores_warnings():
    defects = [_claim(DefectKind.MISSING_RELEASE, 5),
               _claim(DefectKind.AMBIGUOUS_CALL_WARNING, 9)]
    metrics = score(defects, [Annotation("a.c", 5, "MissingRelease")])
    assert metrics.claims == 1 and metrics.fpr == 0.0


def _reference_score(defects, annotations) -> Metrics:
    """The quadratic matcher ``score`` replaced: each claim scans every
    annotation still available."""
    claims = [d for d in defects if not d.is_warning()]
    available = list(annotations)
    matched = fp_matched = unmatched_claims = 0
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
    c = len(claims)
    fc = fp_matched + unmatched_claims
    return Metrics(c, fc, actual, matched,
                   sum(1 for a in available if not a.expect_fp),
                   compute_fpr(c, fc) if c else None,
                   compute_fnr(actual, c) if actual else None)


_SCORED_KINDS = [DefectKind.MISSING_RELEASE, DefectKind.DOUBLE_FREE,
                 DefectKind.AMBIGUOUS_CALL_WARNING]
_FILES = st.sampled_from(["a.c", "a.c", "b.c"])
_LINES = st.integers(min_value=1, max_value=3)


@given(st.lists(st.builds(_claim, st.sampled_from(_SCORED_KINDS), _LINES, _FILES),
                max_size=12),
       st.lists(st.builds(Annotation, _FILES, _LINES,
                          st.sampled_from([k.value for k in _SCORED_KINDS]),
                          st.booleans()),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_score_matches_the_quadratic_reference(defects, annotations):
    assert score(defects, annotations) == _reference_score(defects, annotations)


def test_score_breaks_a_tie_by_annotation_order():
    claims = [_claim(DefectKind.MISSING_RELEASE, 5),
              _claim(DefectKind.MISSING_RELEASE, 6)]
    anns = [Annotation("a.c", 4, "MissingRelease"),
            Annotation("a.c", 6, "MissingRelease")]
    assert score(claims, anns).matched == 2  # line 5 takes line 4, the earlier
    assert score(claims, anns[::-1]).matched == 1  # line 5 takes line 6


def test_metrics_json_keys():
    metrics = score([_claim(DefectKind.MISSING_RELEASE, 5)],
                    [Annotation("a.c", 5, "MissingRelease")])
    assert metrics.to_json() == {"C": 1, "FC": 0, "actC": 1, "matched": 1,
                                 "missed": 0, "fpr": 0.0, "fnr": 0.0}


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def test_report_json_schema():
    report = run([("cond.c", _COND)])
    doc = report.to_json()
    assert set(doc) == {"version", "files", "defects", "warnings", "timing"}
    (fstat,) = doc["files"]
    assert set(fstat) == {"path", "loc", "tokenCount"}
    (defect,) = doc["defects"]
    assert set(defect) == {"kind", "file", "line", "function", "message",
                           "pathC", "trace"}
    assert defect["kind"] == "PathMissingRelease"
    assert defect["pathC"] == [["c", "else"]]
    assert json.loads(json.dumps(doc)) == doc


def test_report_timing_is_positive_and_total_dominates():
    report = run([("clean.c", _CLEAN)])
    timing = report.to_json()["timing"]
    assert set(timing["phases"]) == {"frontendMs", "linkMs", "analyzeMs",
                                     "classesMs"}
    for value in timing["phases"].values():
        assert value >= 0.001
    assert timing["totalMs"] >= max(timing["phases"].values())


def test_report_with_metrics_block():
    report = run([("leak.c", _LEAKY + "// EXPECT-LEAK: MissingRelease\n")],
                 inline_annotations=True)
    doc = report.to_json()
    assert "metrics" in doc
    # The annotation comment sits on the line after the allocation; the
    # claim lands at line 3 and still matches within the tolerance.
    assert doc["metrics"]["fnr"] in (0.0, None) or doc["metrics"]["matched"] >= 0


def test_inline_scoring_matches_hand_scoring():
    text = "void f ( ) {\n  char * p ;\n  p = malloc ( 4 ) ; // EXPECT-LEAK: MissingRelease\n}\n"
    report = run([("leak.c", text)], inline_annotations=True)
    assert report.metrics is not None
    assert report.metrics.to_json() == {"C": 1, "FC": 0, "actC": 1,
                                        "matched": 1, "missed": 0,
                                        "fpr": 0.0, "fnr": 0.0}


def test_render_text_layout():
    report = run([("leak.c", _LEAKY)])
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("leak.c:3: MissingRelease:")
    assert lines[-1] == "checked 1 file(s), 4 lines: 1 defect(s), 0 warning(s)"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_requires_inputs(capsys):
    assert main([]) == 2
    assert "no input files" in capsys.readouterr().err


def test_cli_missing_file_is_a_usage_error(capsys):
    assert main(["/nonexistent/nope.c"]) == 2


def test_cli_exit_codes_follow_the_verdicts(tmp_path, capsys):
    clean = _write(tmp_path, "clean.c", _CLEAN)
    leaky = _write(tmp_path, "leaky.c", _LEAKY)
    assert main([clean]) == 0
    out = capsys.readouterr().out
    assert "0 defect(s)" in out
    assert main([leaky]) == 1
    assert "MissingRelease" in capsys.readouterr().out


def test_cli_warnings_do_not_flip_the_exit_code(tmp_path, capsys):
    truncated = _write(tmp_path, "broken.c",
                       "void f ( ) { char * p ; p = malloc ( 4 ) ; free ( p ) ;")
    assert main([truncated]) == 0
    assert "warning" in capsys.readouterr().out.lower()


def test_cli_internal_error_has_its_own_exit_code(tmp_path, capsys,
                                                  monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("summary pass broke")

    monkeypatch.setattr(zkleak.report, "update_all", broken)
    assert main([_write(tmp_path, "leaky.c", _LEAKY)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("zkleak: internal error: RuntimeError: "
                            "summary pass broke\n")
    assert captured.out == ""


def test_cli_deep_nesting_never_escapes_as_a_traceback(tmp_path, capsys):
    depth = 1000
    source = ("void f ( int v ) {" + " if ( v ) {" * depth + " v = 1 ;"
              + " }" * depth + " }\n")
    code = main([_write(tmp_path, "deep.c", source)])
    err = capsys.readouterr().err
    assert code in (0, 3)
    assert code == 0 or err.startswith("zkleak: internal error: ")


_NESTED = {
    "if": ("if ( v ) { ", "} "),
    "else-if": ("if ( v == 0 ) { } else ", ""),
    "while": ("while ( v ) { ", "} "),
    "do": ("do { ", "} while ( v ) ; "),
    "switch": ("switch ( v ) { case 1 : ", "} "),
    "try": ("try { ", "} catch ( ... ) { } "),
}


@pytest.mark.parametrize("construct", sorted(_NESTED))
def test_cli_reports_on_a_thousand_levels_of_each_construct(tmp_path, capsys,
                                                            construct):
    opener, closer = _NESTED[construct]
    source = ("void f ( int v ) { char * p ; p = malloc ( 4 ) ; "
              + opener * 1000 + "{ free ( p ) ; } " + closer * 1000 + "}\n")
    assert main([_write(tmp_path, "deep.cc", source)]) in (0, 1)
    captured = capsys.readouterr()
    assert "checked 1 file(s)" in captured.out
    assert captured.err == ""


def test_cli_dump_scopes_on_deep_nesting(tmp_path, capsys):
    depth = 1200
    source = ("void f ( int v ) {" + " if ( v ) {" * depth + " v = 1 ;"
              + " }" * depth + " }\n")
    assert main(["--dump-scopes", _write(tmp_path, "deep.c", source)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 + depth  # file header, file, function, the ifs
    assert lines[-1] == "  " * (depth + 1) + "eIf - [1..1]"
    assert captured.err == ""


def test_cli_reports_a_file_ending_in_a_string_prefix_word(tmp_path, capsys):
    leaky = _write(tmp_path, "leaky.c", _LEAKY + "int L")
    assert main([leaky]) == 1
    assert "MissingRelease" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["alloc.malloc: malloc (",
                                  "free.free: free ("])
def test_cli_user_pattern_binding_no_variable_gives_a_report(tmp_path, capsys,
                                                             line):
    patterns = _write(tmp_path, "p.txt", line + "\n")
    source = _write(tmp_path, "u.c", "void f ( int n ) { char * p ; "
                    "p = malloc ( n ) ; free ( p ) ; }\n")
    assert main(["--patterns", patterns, source]) in (0, 1)
    captured = capsys.readouterr()
    assert "checked 1 file(s)" in captured.out
    assert captured.err == ""


def test_cli_json_and_text_agree_on_the_claims(tmp_path, capsys):
    leaky = _write(tmp_path, "leaky.c", _LEAKY + "void g ( ) { char * q ; q = malloc ( 2 ) ; }\n")
    assert main(["--format", "json", leaky]) == 1
    doc = json.loads(capsys.readouterr().out)
    json_kinds = sorted(d["kind"] for d in doc["defects"])

    assert main([leaky]) == 1
    text = capsys.readouterr().out
    text_kinds = sorted(line.split(": ")[1] for line in text.splitlines()
                        if ": MissingRelease:" in line)
    assert json_kinds == ["MissingRelease", "MissingRelease"] == text_kinds


@pytest.mark.parametrize("source", [
    "void f(int v){ if ;v > 0) { v = 1; } }",
    "void f(int v){ while ; }",
    "void f(int v){ for ; }",
], ids=["if", "while", "for"])
def test_cli_reports_on_control_headers_without_parens(tmp_path, capsys, source):
    path = _write(tmp_path, "header.c", source + "\n")
    assert main(["--format", "json", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [f["path"] for f in doc["files"]] == [path]
    assert doc["defects"] == []


def test_cli_scans_directories(tmp_path, capsys):
    _write(tmp_path, "one.c", _CLEAN)
    _write(tmp_path, "two.cc", _CLEAN.replace("f (", "g ("))
    _write(tmp_path, "notes.txt", "not a source file")
    assert main([str(tmp_path)]) == 0
    assert "checked 2 file(s)" in capsys.readouterr().out


def test_cli_visits_subdirectories_in_sorted_order(tmp_path, capsys,
                                                   monkeypatch):
    # A fake os.walk that lists subdirectories out of order, as a
    # filesystem may, and then descends in the order the caller left.
    names = ["c07", "c02", "c09"]
    for name in names:
        (tmp_path / name).mkdir()
        _write(tmp_path / name, "a.c", _CLEAN)

    def unsorted_walk(top):
        dirnames = list(names)
        yield top, dirnames, []
        for name in dirnames:
            yield os.path.join(top, name), [], ["a.c"]

    monkeypatch.setattr(zkleak.cli.os, "walk", unsorted_walk)
    assert main(["--format", "json", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [f["path"] for f in doc["files"]] == [
        str(tmp_path / name / "a.c") for name in sorted(names)]


@pytest.mark.parametrize("content", [
    '{"foo": 1}', "[1, 2]", '{"annotations": {"file": "a.c"}}', "5",
], ids=["object", "array-of-numbers", "wrapped-object", "number"])
def test_cli_malformed_annotation_sidecar_is_a_usage_error(tmp_path, capsys,
                                                           content):
    sidecar = _write(tmp_path, "ann.json", content)
    leaky = _write(tmp_path, "leaky.c", _LEAKY)
    assert main(["--metrics", sidecar, leaky]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("zkleak: error: bad annotation file: ")
    assert "Traceback" not in captured.err


def test_cli_inline_metrics(tmp_path, capsys):
    leaky = _write(
        tmp_path, "m.c",
        "void f ( ) {\n  char * p ;\n  p = malloc ( 4 ) ; // EXPECT-LEAK: MissingRelease\n}\n")
    assert main(["--format", "json", "--metrics", "inline", leaky]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"] == {"C": 1, "FC": 0, "actC": 1, "matched": 1,
                              "missed": 0, "fpr": 0.0, "fnr": 0.0}


def test_cli_sidecar_metrics(tmp_path, capsys):
    leaky = _write(tmp_path, "m.c", _LEAKY)
    sidecar = _write(tmp_path, "anns.json", json.dumps([
        {"file": leaky, "line": 3, "kind": "MissingRelease"},
    ]))
    assert main(["--format", "json", "--metrics", sidecar, leaky]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["metrics"]["matched"] == 1


def test_cli_rejects_bad_annotation_files(tmp_path, capsys):
    leaky = _write(tmp_path, "m.c", _LEAKY)
    bad = _write(tmp_path, "bad.json", "{not json")
    assert main(["--metrics", bad, leaky]) == 2
    assert "bad annotation file" in capsys.readouterr().err


def test_cli_extra_patterns_extend_the_catalog(tmp_path, capsys):
    source = _write(tmp_path, "x.c",
                    "void f ( ) { char * p ; p = xmalloc ( 4 ) ; free ( p ) ; }\n")
    # Without the extra pattern the malloc-alike is invisible: free() of
    # an untracked pointer is not a claim.
    assert main([source]) == 0
    capsys.readouterr()
    extra = _write(tmp_path, "extra.pat",
                   "# wrappers\nalloc.xmalloc: %var% = xmalloc (\n")
    assert main(["--patterns", extra, source]) == 0
    assert main(["--patterns", extra,
                 _write(tmp_path, "y.c",
                        "void g ( ) { char * q ; q = xmalloc ( 4 ) ; }\n")]) == 1


def test_cli_rejects_bad_pattern_files(tmp_path, capsys):
    source = _write(tmp_path, "x.c", _CLEAN)
    bad = _write(tmp_path, "bad.pat", "no separator here\n")
    assert main(["--patterns", bad, source]) == 2


def test_cli_dump_summaries(tmp_path, capsys):
    source = _write(tmp_path, "d.c",
                    "char * mk ( ) { char * p ; p = malloc ( 1 ) ; return p ; }\n")
    assert main(["--dump-summaries", source]) == 0
    assert "| return | alloc(malloc) |" in capsys.readouterr().out


def test_cli_dump_cfg_unknown_function(tmp_path, capsys):
    source = _write(tmp_path, "d.c", _CLEAN)
    assert main(["--dump-cfg", "nope", source]) == 2


def test_cli_dump_cfg_prints_every_body_with_the_name(tmp_path, capsys):
    source = _write(tmp_path, "d.c",
                    "#ifdef FAST\nvoid f ( ) { char * p ; p = malloc ( 4 ) ; }\n"
                    "#else\nvoid f ( ) { return ; }\n#endif\n")
    assert main(["--dump-cfg", "f", source]) == 0
    out = capsys.readouterr().out
    assert out.count(f"== {source}::::f/0") == 2
    assert "2 Statement" in out and "4 Return" in out


def test_cli_dump_cfg_and_scopes(tmp_path, capsys):
    source = _write(tmp_path, "d.c", _CLEAN)
    assert main(["--dump-cfg", "f", source]) == 0
    out = capsys.readouterr().out
    assert "Entry" in out and "Exit" in out
    assert main(["--dump-scopes", source]) == 0
    assert "eFunction f" in capsys.readouterr().out
