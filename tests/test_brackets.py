"""The bracket table and the verdicts that rest on it.

``fixtures/bracket_golden.json`` holds the defect and warning lists of
``report.run`` on corpus files with seeded bracket damage: single bracket
tokens deleted, duplicated or swapped, nested templates closed by ``>>``,
prototypes whose ``(`` never closes, and a stray ``) }`` after a
statement.  The expected lists were recorded from the analyzer before
the bracket scanners were folded into ``TokenStream.partner``; when this
test fails, the change altered a verdict on malformed input.  Regenerate
the fixture only from a commit whose verdicts are known good:

    PYTHONPATH=src python tests/test_brackets.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from zkleak.events import _extract
from zkleak.graphs import build_cfg
from zkleak.patterns import compile_catalog
from zkleak.report import run
from zkleak.scopes import build_scope_tree
from zkleak.tokens import tokenize

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
GOLDEN = Path(__file__).parent / "fixtures" / "bracket_golden.json"

_BRACKETS = "()[]{}"
_PAIRS = {"(": ")", "[": "]", "{": "}"}
_INSERTED_LINES = [
    "vector<vector<int>> vt;",
    "std::map<int, vector<vector<char>>> mm;",
    "list<vector<int>> *lp = new list<vector<int>>();",
    "x = a < b >> c;",
    "int f ( ;",
    "int x ; ) }",
]
_HAND_WRITTEN = [
    ("stray.c", "int x ; ) }\n"),
    ("templates.cc", "vector<vector<int>> v0;\nvector<vector<int>> v1;\n"
                     "void f() { map<int, vector<vector<int>>> m; }\n"),
    ("open_protos.c", "int f0 ( ;\nint f1 ( ;\nvoid g() { char *p = malloc(4); }\n"),
    ("mixed.c", "void f() { char *p = malloc(4); ( ] ; free(p); }\n"),
]


def _bracket_offsets(text: str) -> List[int]:
    """Source offsets of the single-character bracket tokens of *text*."""
    line_starts = [0] + [k + 1 for k, ch in enumerate(text) if ch == "\n"]
    stream = tokenize(text)
    offsets = [line_starts[line - 1] + col - 1
               for token, line, col in zip(stream.text, stream.line, stream.col)
               if token in _PAIRS or token in _PAIRS.values()]
    assert all(text[k] in _BRACKETS for k in offsets)
    return offsets


def _mutate(rng: random.Random, text: str) -> str:
    op = rng.choice(["delete", "duplicate", "rekind", "exchange", "insert"])
    offsets = _bracket_offsets(text)
    if op == "insert" or not offsets:
        lines = text.split("\n")
        lines.insert(rng.randint(0, len(lines)), rng.choice(_INSERTED_LINES))
        return "\n".join(lines)
    at = rng.choice(offsets)
    if op == "delete":
        return text[:at] + text[at + 1:]
    if op == "duplicate":
        return text[:at] + text[at] + text[at:]
    if op == "rekind":
        glyph = rng.choice([g for g in _BRACKETS if g != text[at]])
        return text[:at] + glyph + text[at + 1:]
    other = rng.choice(offsets)
    lo, hi = min(at, other), max(at, other)
    if lo == hi:
        return text
    return text[:lo] + text[hi] + text[lo + 1:hi] + text[lo] + text[hi + 1:]


def mutated_cases(count: int = 200) -> List[Tuple[str, str]]:
    """(file name, source) pairs: the hand-written cases, then *count*
    corpus files with one to three seeded mutations each."""
    corpus = sorted(CORPUS.iterdir())
    cases = list(_HAND_WRITTEN)
    for seed in range(count):
        rng = random.Random(seed)
        path = rng.choice(corpus)
        text = path.read_text(encoding="utf-8")
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        cases.append((path.name, text))
    return cases


def _verdicts(name: str, source: str) -> dict:
    doc = run([(name, source)]).to_json()
    return {"file": name, "source": source,
            "defects": doc["defects"], "warnings": doc["warnings"]}


def test_verdicts_on_bracket_damage_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert [(c["file"], c["source"]) for c in golden] == mutated_cases()
    for case in golden:
        assert _verdicts(case["file"], case["source"]) == case


def test_stray_close_reports_the_brace_first():
    # Both diagnostics sit on line 1 and dedup ignores the message, so the
    # kind emitted first is the one reported.
    report = run([("s.c", "int x ; ) }\n")])
    assert [w.message for w in report.warnings] == ["unmatched '}'"]


# ---------------------------------------------------------------------------
# Partners that fall outside a body, a statement or a call
# ---------------------------------------------------------------------------

def _cfg_of(report, name: str):
    # The run keeps member-function CFGs only; a free function's is rebuilt.
    return next(build_cfg(scope, unit.stream) for unit in report.units
                for scope in unit.root.function_scopes if scope.name == name)


def test_a_guard_closing_past_the_body_is_clipped_to_it():
    # The "(" after "if" pairs with the ")" in h's body.
    report = run([("c.c", "void f ( int n ) { if ( n }\nvoid h ( ) { ) ; }\n")])
    cfg = _cfg_of(report, "f")
    begin, end = cfg.func_scope.token_begin + 1, cfg.func_scope.token_end - 1
    spans = [node.span for node in cfg.nodes if node.span is not None]
    assert spans and all(begin <= lo <= hi <= end for lo, hi in spans)


def test_a_call_closing_on_the_last_token_of_an_unclosed_body_links():
    fcg = run([("b.c", "void g ( ) { }\nvoid f ( ) { g ( )")]).fcg
    assert [(e.caller.func_name, e.callee.func_name) for e in fcg.edges] == [("f", "g")]


def test_a_call_closing_past_its_statement_makes_no_call_event():
    report = run([("e.c", "void g ( ) { }\nvoid f ( ) { g ( ] ; ) ; }\n")])
    cfg = _cfg_of(report, "f")
    site_map = report.fcg.call_sites(cfg.func)
    catalog = compile_catalog(None)
    assert list(site_map.values())[0].func_name == "g"
    assert [ev for node in cfg.nodes
            for ev in _extract(cfg.stream, node.span, catalog, site_map)] == []


def test_call_arity_counts_empty_arguments():
    fcg = run([("a.c", "void g ( int a , int b , int c ) { }\n"
                       "void f ( int x ) { g ( x , , x ) ; }\n")]).fcg
    assert [e.callee.render() for e in fcg.edges] == ["a.c::::g/3"]


# ---------------------------------------------------------------------------
# The table against a brute-force depth scan
# ---------------------------------------------------------------------------

def _depth_scan_partners(texts: List[str]) -> List[int]:
    """For each open, the first close of its kind at which the depth
    counted from it returns to zero; -1 where there is none."""
    partner = [-1] * len(texts)
    for i, text in enumerate(texts):
        close = _PAIRS.get(text)
        if close is None:
            continue
        depth = 0
        for j in range(i, len(texts)):
            if texts[j] == text:
                depth += 1
            elif texts[j] == close:
                depth -= 1
                if depth == 0:
                    partner[i], partner[j] = j, i
                    break
    return partner


def _expected_diagnostics(stream, partner: List[int]) -> list:
    """Braces, then parens; unmatched closes, then unmatched opens, each
    in token order.  Square brackets report nothing."""
    out = []
    for code, open_text, close_text in (("UnbalancedBraces", "{", "}"),
                                        ("UnbalancedParens", "(", ")")):
        for text in (close_text, open_text):
            out += [(code, f"unmatched {text!r}", stream.col[i])
                    for i, token in enumerate(stream.text)
                    if token == text and partner[i] < 0]
    return out


@given(st.lists(st.sampled_from(["(", ")", "[", "]", "{", "}", ";", "x", "<", ">>"]),
                max_size=80))
@settings(max_examples=300, deadline=None)
def test_partner_table_equals_a_depth_scan(texts):
    stream = tokenize(" ".join(texts), "p.c")
    build_scope_tree(stream)
    partner = _depth_scan_partners(stream.text)
    assert list(stream.partner) == partner
    assert [(d.code, d.message, d.column) for d in stream.diagnostics] \
        == _expected_diagnostics(stream, partner)


if __name__ == "__main__":
    cases = [_verdicts(name, source) for name, source in mutated_cases()]
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
