"""Pattern compiler and matcher, checked against an exhaustive oracle.

``oracle_match_all`` below is the brute-force matcher: plain indexing
into a list of (text, kind, var id) triples, one independent attempt per
start position, written from the
unit table before the production matcher.  The production matcher tries
only the start positions a pattern's anchor allows and must produce
identical span sets.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from zkleak.events import _extract
from zkleak.graphs import build_cfg
from zkleak.patterns import (
    Abstract,
    Alternation,
    BadPatternUnit,
    Catalog,
    CharClass,
    DefectPattern,
    Literal,
    MatchSpan,
    builtin_patterns,
    catalog_patterns,
    compile_catalog,
    compile_pattern,
    match_all,
    match_in_range,
)
from zkleak.report import run
from zkleak.scopes import build_scope_tree
from zkleak.tokens import TokenKind, tokenize

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

_COMPARISONS = {"<", ">", "<=", ">=", "==", "!="}
_TYPE_WORDS = {
    "auto", "bool", "char", "char8_t", "char16_t", "char32_t", "double",
    "float", "int", "long", "short", "signed", "unsigned", "void", "wchar_t",
}


def _oracle_accepts(unit, tok, stream) -> bool:
    text, token_kind, var_id = tok
    if isinstance(unit, Literal):
        return text == unit.text
    if isinstance(unit, CharClass):
        return len(text) == 1 and text in unit.chars
    if isinstance(unit, Alternation):
        return text in unit.choices
    kind = unit.kind
    if kind == "any":
        return True
    if kind == "name":
        return token_kind is TokenKind.IDENTIFIER or text in _TYPE_WORDS
    if kind == "type":
        return text in _TYPE_WORDS or (
            token_kind is TokenKind.IDENTIFIER and text in stream.known_types)
    if kind == "num":
        return token_kind is TokenKind.NUMBER
    if kind == "bool":
        return text in ("true", "false")
    if kind == "comp":
        return text in _COMPARISONS
    if kind == "str":
        return token_kind is TokenKind.STRING_LITERAL
    if kind in ("var", "varid"):
        if token_kind is not TokenKind.IDENTIFIER:
            return False
        return var_id > 0 if stream.scoped else True
    if kind == "op":
        return token_kind is TokenKind.OPERATOR
    if kind == "or":
        return text == "|"
    if kind == "oror":
        return text == "||"
    raise AssertionError(kind)


def _oracle_tokens(stream):
    return list(zip(stream.text, stream.kind, stream.var_id))


def _oracle_attempt(tokens, stream, pattern, start):
    """Try the whole pattern anchored at index *start*; None on failure."""
    i = start
    bindings = {}
    for idx, unit in enumerate(pattern.units):
        if isinstance(unit, Alternation):
            if i < len(tokens) and tokens[i][0] in unit.choices:
                i += 1
            elif unit.allows_empty:
                continue
            else:
                return None
        else:
            if i >= len(tokens) or not _oracle_accepts(unit, tokens[i], stream):
                return None
            if isinstance(unit, Abstract):
                bindings[idx] = i
            i += 1
    if i == start:
        return None
    return (start, i, bindings)


def oracle_match_all(stream, pattern):
    """Left-to-right scan: resume at end on success, +1 on failure."""
    tokens = _oracle_tokens(stream)
    found = []
    i = 0
    while i < len(tokens):
        hit = _oracle_attempt(tokens, stream, pattern, i)
        if hit is None:
            i += 1
        else:
            found.append(hit)
            i = hit[1]
    return found


def _spans_as_tuples(spans):
    return [(s.first_p, s.end_p, dict(s.bindings)) for s in spans]


def _oracle_as_tuples(hits):
    return [(a, b, dict(binds)) for a, b, binds in hits]


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

_VOCAB = [
    "a", "b", "c", "zz", "p", "q",
    "int", "char", "void", "float",
    "0", "1", "8", "42",
    "new", "delete", "return", "free", "malloc", "calloc", "realloc",
    "NULL", "nullptr", "true", "false",
    "=", "==", "!=", "<", ">", "<=", ">=", "++", "--", "+", "-",
    "|", "||", "(", ")", "[", "]", ";", ",",
    '"s"',
]

_EXTRA_PATTERNS = [
    "%name% %comp% %num%",
    "[+-] %num%",
    "void|int|float| %name%",
    "%any% ;",
    "%op% %var%",
    "%str%",
    "%or% %oror%",
    "%bool% )",
    "%type% %name%",
]


def make_stream(seed: int, max_tokens: int = 64):
    rng = random.Random(seed)
    n = rng.randint(0, max_tokens - 6)
    body = " ".join(rng.choice(_VOCAB) for _ in range(n))
    if rng.random() < 0.5:
        # Scope-annotated stream: a, b, c resolve; zz stays unknown.
        stream = tokenize("int a ; int b ; char c ; " + body, f"s{seed}.c")
        build_scope_tree(stream)
    else:
        stream = tokenize(body, f"s{seed}.c")
    return stream


def all_patterns():
    pats = catalog_patterns(builtin_patterns())
    pats += [compile_pattern(text) for text in _EXTRA_PATTERNS]
    return pats


# Patterns that exercise anchor selection: a literal behind an optional
# unit (no fixed offset, so no anchor), a character-class anchor,
# multi-text anchors, and a hand-built pattern that carries no anchor.
_ANCHOR_PATTERNS = [
    "int|char| %var% = %num%",
    "%var% [+-] %num%",
    "%name% <|>|<=|>= %num%",
    "( NULL|nullptr|0 )",
    "free|delete %var% ;",
]


def anchor_patterns():
    pats = [compile_pattern(text) for text in _ANCHOR_PATTERNS]
    pats.append(DefectPattern((Abstract("var"), Literal("=")), "%var% =", "hand"))
    return pats


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

def test_match_all_equals_oracle_on_200_random_streams():
    patterns = all_patterns()
    for seed in range(200):
        stream = make_stream(seed)
        for pattern in patterns:
            got = _spans_as_tuples(match_all(stream, pattern))
            want = _oracle_as_tuples(oracle_match_all(stream, pattern))
            assert got == want, (seed, pattern.source)


def test_anchored_patterns_equal_oracle_on_200_random_streams():
    patterns = anchor_patterns()
    for seed in range(200):
        stream = make_stream(seed)
        begin, end = 2, max(2, len(stream) - 2)
        for pattern in patterns:
            got = _spans_as_tuples(match_all(stream, pattern))
            want = _oracle_as_tuples(oracle_match_all(stream, pattern))
            assert got == want, (seed, pattern.source)
            clipped = [(s.first_p, s.end_p)
                       for s in match_in_range(stream, pattern, begin, end)]
            assert clipped == _oracle_in_window(stream, pattern, begin, end)


def test_anchor_is_a_fixed_offset_unit_preferring_words():
    def anchor(text):
        return compile_pattern(text).anchor

    assert anchor("%var% = malloc (") == (2, frozenset({"malloc"}))
    assert anchor("%var% = %var%") == (1, frozenset({"="}))
    assert anchor("%var% = NULL|nullptr|0") == (2, frozenset({"NULL", "nullptr", "0"}))
    assert anchor("delete [ ] %var%") == (0, frozenset({"delete"}))
    assert anchor("%var% [+-] %num%") == (1, frozenset({"+", "-"}))
    assert anchor("int|char| %var% = %num%") is None
    assert anchor("= int|char| malloc") == (0, frozenset({"="}))
    assert anchor("%var% %comp% %num%") is None
    assert anchor_patterns()[-1].anchor is None


def test_catalog_table_maps_anchor_texts_to_pattern_offsets():
    catalog = compile_catalog(None)
    labels = [p.label for p in catalog.patterns]
    assert catalog.by_text["malloc"] == [(labels.index("alloc.malloc"), 2)]
    assert (labels.index("transfer.null_assign"), 2) in catalog.by_text["NULL"]
    assert sorted(catalog.by_text) == sorted([
        "malloc", "calloc", "realloc", "new", "free", "delete", "=",
        "return", "++", "--", "NULL", "nullptr", "0"])
    assert compile_catalog(catalog) is catalog


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_match_all_equals_oracle_property(seed):
    stream = make_stream(seed)
    for pattern in all_patterns():
        got = _spans_as_tuples(match_all(stream, pattern))
        want = _oracle_as_tuples(oracle_match_all(stream, pattern))
        assert got == want


def _oracle_in_window(stream, pattern, begin, end):
    """The oracle scan restricted to [begin, end): clipping re-anchors."""
    tokens = _oracle_tokens(stream)
    want = []
    i = begin
    while i < end:
        hit = _oracle_attempt(tokens, stream, pattern, i)
        if hit is not None and hit[1] <= end:
            want.append((hit[0], hit[1]))
            i = hit[1]
        else:
            i += 1
    return want


def test_match_in_range_is_the_oracle_clipped():
    stream = make_stream(11)
    n = len(stream)
    if n < 8:
        stream = make_stream(17)
        n = len(stream)
    begin, end = 2, n - 2
    for pattern in all_patterns():
        got = [(s.first_p, s.end_p) for s in match_in_range(stream, pattern, begin, end)]
        assert got == _oracle_in_window(stream, pattern, begin, end)


def test_dispatched_extraction_equals_a_full_scan_on_the_corpus(corpus_paths):
    # Stripping the anchors makes every pattern scan every position, the
    # way the matcher worked before the dispatch table.
    dispatched = compile_catalog(None)
    full_scan = Catalog([DefectPattern(p.units, p.source, p.label, anchor=None)
                         for p in dispatched.patterns])
    report = run([(str(p), p.read_text()) for p in corpus_paths])
    cfgs = [build_cfg(scope, unit.stream) for unit in report.units
            for scope in unit.root.function_scopes]
    cases = [(cfg.stream, node.span, report.fcg.call_sites(cfg.func))
             for cfg in cfgs
             for node in cfg.nodes]
    # Whole member-function bodies stay as cases: they are the longest
    # spans in the corpus (the class rules themselves read the nodes).
    cases += [(unit.stream, tuple(span), {})
              for unit in report.units for cls in unit.classes
              for span in [*cls.ctors, cls.dtor, cls.copy_ctor, cls.assign_op]
              if span is not None]
    events = 0
    for stream, span, site_map in cases:
        want = _extract(stream, span, full_scan, site_map)
        assert _extract(stream, span, dispatched, site_map) == want
        events += len(want)
    # Cases with a non-empty span: 109 CFG nodes and 22 member bodies
    # (106 nodes while only one of two same-id bodies got a CFG: the
    # m20 files' copy constructors add three).
    assert sum(lo < hi for _stream, (lo, hi), _sites in cases) == 131
    assert events > 100


class _UnscannableSites(dict):
    def __iter__(self):
        raise AssertionError("the call-site map was scanned")

    keys = items = __iter__


def test_call_events_look_sites_up_instead_of_scanning_the_map():
    report = run([("sites.c", "void g ( char * p ) { }\n"
                               "void f ( ) { char * q ; g ( q ) ; h ( ) ; g ( q ) ; }")])
    root, stream = report.units[0].root, report.units[0].stream
    cfg = next(build_cfg(scope, stream) for scope in root.function_scopes
               if scope.name == "f")
    catalog = compile_catalog(None)
    site_map = report.fcg.call_sites(cfg.func)
    want = [_extract(cfg.stream, node.span, catalog, site_map) for node in cfg.nodes]
    unscannable = _UnscannableSites(site_map)
    assert [_extract(cfg.stream, node.span, catalog, unscannable)
            for node in cfg.nodes] == want
    assert sum(len(events) for events in want) == 3


# ---------------------------------------------------------------------------
# compile_pattern
# ---------------------------------------------------------------------------

def test_compile_malloc_pattern_units():
    pat = compile_pattern("%var% = malloc (")
    assert pat.units == (
        Abstract("var"), Literal("="), Literal("malloc"), Literal("("),
    )
    assert pat.source == "%var% = malloc ("


def test_compile_alternation_with_empty_choice():
    pat = compile_pattern("void|int|float|char| %name%")
    alt = pat.units[0]
    assert isinstance(alt, Alternation)
    assert set(alt.choices) == {"void", "int", "float", "char"}
    assert alt.allows_empty
    assert pat.units[1] == Abstract("name")


def test_compile_char_class():
    pat = compile_pattern("[+-] %num%")
    assert pat.units[0] == CharClass(frozenset("+-"))


def test_unknown_abstraction_rejected():
    with pytest.raises(BadPatternUnit) as exc:
        compile_pattern("%bogus%")
    assert exc.value.position == 0
    with pytest.raises(BadPatternUnit) as exc:
        compile_pattern("free ( %what% )")
    assert exc.value.position == 2


def test_compile_is_deterministic():
    for label, pat in builtin_patterns().items():
        again = compile_pattern(pat.source, label)
        assert again == pat


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

_EXPECTED_CATALOG = {
    "alloc.malloc": "%var% = malloc (",
    "alloc.calloc": "%var% = calloc (",
    "alloc.realloc": "%var% = realloc (",
    "alloc.new": "%var% = new %type%",
    "alloc.new_array": "%var% = new %type% [",
    "free.free": "free ( %var% )",
    "free.delete": "delete %var%",
    "free.delete_array": "delete [ ] %var%",
    "transfer.assign": "%var% = %var%",
    "transfer.return": "return %var%",
    "transfer.incr_post": "%var% ++",
    "transfer.decr_post": "%var% --",
    "transfer.incr_pre": "++ %var%",
    "transfer.decr_pre": "-- %var%",
    "transfer.null_assign": "%var% = NULL|nullptr|0",
}


def test_catalog_contents():
    catalog = builtin_patterns()
    assert {label: p.source for label, p in catalog.items()} == _EXPECTED_CATALOG
    for label, pat in catalog.items():
        assert pat.label == label


def test_catalog_patterns_normalizes_mapping_and_sequence():
    as_list = catalog_patterns(builtin_patterns())
    assert len(as_list) == 15
    assert catalog_patterns(as_list) == as_list
    assert len(catalog_patterns(None)) == 15


def test_new_array_needs_the_bracket():
    pat = builtin_patterns()["alloc.new_array"]
    yes = tokenize("a = new int [ 4 ]", "y.cc")
    no = tokenize("a = new int ( 4 )", "n.cc")
    assert len(match_all(yes, pat)) == 1
    assert len(match_all(no, pat)) == 0


def test_every_catalog_pattern_matches_the_exemplar_fixture(fixtures_dir):
    text = (fixtures_dir / "catalog_exemplars.cc").read_text()
    stream = tokenize(text, "catalog_exemplars.cc")
    build_scope_tree(stream)
    for label, pat in builtin_patterns().items():
        assert match_all(stream, pat), f"{label} matched nothing"


# ---------------------------------------------------------------------------
# Documented matching examples
# ---------------------------------------------------------------------------

def test_malloc_match_binds_destination():
    stream = tokenize("q = malloc ( 8 ) ;", "m.c")
    spans = match_all(stream, builtin_patterns()["alloc.malloc"])
    assert len(spans) == 1
    span = spans[0]
    assert span.first_p == 0 and span.end_p == 4
    assert span.bindings == {0: 0}
    assert stream.text[span.bindings[0]] == "q"


def test_comparison_binding():
    stream = tokenize("x == y", "c.c")
    spans = match_all(stream, compile_pattern("%var% %comp% %var%"))
    assert len(spans) == 1
    assert stream.text[spans[0].bindings[1]] == "=="


def test_matches_do_not_overlap():
    stream = tokenize("a = b = c", "o.c")
    spans = match_all(stream, builtin_patterns()["transfer.assign"])
    # "a = b" consumes b, so "b = c" cannot anchor at b.
    assert [(s.first_p, s.end_p) for s in spans] == [(0, 3)]


def test_failed_attempt_resumes_one_token_later():
    stream = tokenize("= a = b", "f.c")
    spans = match_all(stream, builtin_patterns()["transfer.assign"])
    assert [(s.first_p, s.end_p) for s in spans] == [(1, 4)]


def test_var_requires_resolution_on_scoped_streams():
    stream = tokenize("void f ( ) { int a ; a = b ; }", "v.c")
    build_scope_tree(stream)
    spans = match_all(stream, builtin_patterns()["transfer.assign"])
    # b never resolves, so "a = b" is not a variable-to-variable transfer.
    assert spans == []


def test_determinism():
    stream = make_stream(5)
    for pattern in all_patterns():
        first = _spans_as_tuples(match_all(stream, pattern))
        second = _spans_as_tuples(match_all(stream, pattern))
        assert first == second


# ---------------------------------------------------------------------------
# Complexity: linear in stream length at fixed pattern
# ---------------------------------------------------------------------------

def test_doubling_stream_length_costs_at_most_3x(line_events):
    unit = "p = malloc ( 8 ) ; free ( p ) ; a = b ; "
    small = tokenize(unit * 400, "small.c")
    large = tokenize(unit * 800, "large.c")
    pattern = builtin_patterns()["alloc.malloc"]
    work_small = line_events(match_all, small, pattern)
    work_large = line_events(match_all, large, pattern)
    assert work_large <= 3 * work_small, (work_small, work_large)
