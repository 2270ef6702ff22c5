"""The differential harness names each class of difference it finds."""

from __future__ import annotations

from differential import _VAR_ID, classify, generate


def _claim(kind: str, line: int, path=(), trace=("Start->Alloced malloc @1",)) -> dict:
    return {"kind": kind, "line": line, "function": "f", "file": "p.c",
            "message": f"{kind} at line {line}", "pathC": [list(t) for t in path],
            "trace": list(trace)}


LEAK = _claim("MissingRelease", 3)
LEAK_OTHER_TRACE = _claim("MissingRelease", 3, trace=("Start->Alloced malloc @3",))
PARTIAL = _claim("PathMissingRelease", 5, path=[("c", "else")])
PARTIAL_OTHER_PATH = _claim("PathMissingRelease", 5, path=[("d", "then")])


def test_lost_repeats_of_kept_sites_are_dedup_only():
    there = [LEAK, LEAK_OTHER_TRACE, PARTIAL, PARTIAL_OTHER_PATH]
    assert classify("defects", [LEAK, PARTIAL], there) == (
        "defects: dedup-only, fewer claims at the same "
        "(kind, line, function) sites")
    assert classify("warnings", [LEAK_OTHER_TRACE, PARTIAL], there).startswith(
        "warnings: dedup-only")


def test_a_lost_site_or_a_new_claim_is_not_dedup_only():
    # the only claim at line 7 is lost
    assert classify("defects", [LEAK], [LEAK, _claim("MissingRelease", 7)]) == (
        "defects: same kinds, a different count")
    # fewer claims, but one of them is not at the revision
    assert classify("defects", [LEAK_OTHER_TRACE], [LEAK, LEAK]) == (
        "defects: same kinds, a different count")
    # more claims here
    assert classify("defects", [LEAK, LEAK_OTHER_TRACE], [LEAK]) == (
        "defects: same kinds, a different count")


def test_other_classes_are_unchanged():
    assert classify("defects", [LEAK], [PARTIAL]) == (
        "defects: kinds only here ['MissingRelease'], "
        "only at the revision ['PathMissingRelease']")
    assert classify("defects", [LEAK], [LEAK_OTHER_TRACE]) == (
        "defects: same kinds and count, other trace")
    assert classify("summaries", "a", "b") == "summaries"


def test_var_ids_renumbered_one_to_one_are_their_own_class():
    there = [_claim("MissingRelease", 3, trace=("Start->Alloced v12=malloc @3",
                                                 "Alloced->Alloced assign v14=v12 @4"))]
    here = [_claim("MissingRelease", 3, trace=("Start->Alloced v11=malloc @3",
                                                "Alloced->Alloced assign v13=v11 @4"))]
    assert classify("defects", here, there) == "var ids renumbered only"
    assert classify("summaries", "f | g26 | alloc(new)\nf | g31 | free(free)",
                    "f | g25 | alloc(new)\nf | g30 | free(free)") == (
        "var ids renumbered only")
    # two ids at the revision are one here: no renaming maps one onto the other
    merged = [_claim("MissingRelease", 3, trace=("Start->Alloced v11=malloc @3",
                                                  "Alloced->Alloced assign v11=v11 @4"))]
    assert classify("defects", merged, there) == "defects: same kinds and count, other trace"
    assert classify("summaries", "f | g1 | alloc(new)\nf | g1 | free(free)",
                    "f | g1 | alloc(new)\nf | g2 | free(free)") == "summaries"


def test_generated_names_are_never_taken_for_var_ids():
    # A defect that moves from one source name to another must not be
    # classed "var ids renumbered only".
    for index in range(40):
        name, source = generate(7, index)
        assert _VAR_ID.search(source) is None, name
