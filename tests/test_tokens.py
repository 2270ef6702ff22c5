"""Lexer behaviour against a reference character scanner.

The reference scanner below was written first, straight from the token
classification rules, and works on plain character indexes.
``tokenize`` has to agree with it on lexeme text and source position
over a pile of generated fixture files.
"""

from __future__ import annotations

import gc
import json
import random
import re

import pytest

from hypothesis import given, settings, strategies as st

from zkleak.scopes import build_scope_tree
from zkleak.tokens import TokenKind, classify_text, tokenize

# ---------------------------------------------------------------------------
# Reference scanner (the oracle)
# ---------------------------------------------------------------------------

# Transcribed operator inventory, longest first.  Deliberately a copy:
# if the real table drifts, the fixtures below will catch it.
_OPS = (
    "<<=", ">>=", "...", "->*", "<=>",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "::", ".*",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ".",
)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\f\v]+)
    | (?P<nl>\n)
    | (?P<linecomment>//[^\n]*)
    | (?P<blockcomment>/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<char>'(?:\\.|[^'\\\n])*')
    | (?P<number>(?:\d|\.\d)(?:[eEpP][+-]|[A-Za-z0-9_.])*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>""" + "|".join(re.escape(op) for op in _OPS) + r""")
    | (?P<punct>[()\[\]{};,])
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_scan(source: str) -> list:
    """(lexeme, line, column) triples per the documented scanning rules."""
    out = []
    pos = 0
    line, col = 1, 1
    at_line_start = True
    while pos < len(source):
        if source.startswith("#", pos) and at_line_start:
            end = source.find("\n", pos)
            pos = len(source) if end < 0 else end
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # Unknown glyph: one token, scanning continues.
            out.append((source[pos], line, col))
            pos += 1
            col += 1
            at_line_start = False
            continue
        text = m.group(0)
        group = m.lastgroup
        if group == "nl":
            line += 1
            col = 1
            at_line_start = True
        elif group in ("ws", "linecomment"):
            col += len(text)
        elif group == "blockcomment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            at_line_start = False
        else:
            out.append((text, line, col))
            col += len(text)
            at_line_start = False
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------

_WORDS = [
    "int", "char", "void", "return", "if", "else", "while", "new",
    "delete", "malloc", "free", "buf", "p", "q", "count", "x1", "_tmp",
]
_NUMBERS = ["0", "1", "42", "0x1F", "0b101", "10u", "3.5", "1e9", "2.5e+3"]
_STRINGS = ['"hi"', '"a b\\n"', "'c'", "'\\0'"]
_GLUE = [" ", "  ", "\t", "\n", "\n\n", " \n "]
_COMMENTS = ["// note\n", "/* one */", "/* two\n   lines */"]


def generate_source(seed: int, chunks: int = 60) -> str:
    rng = random.Random(seed)
    parts = []
    for _ in range(chunks):
        roll = rng.random()
        if roll < 0.35:
            parts.append(rng.choice(_WORDS))
        elif roll < 0.5:
            parts.append(rng.choice(_NUMBERS))
        elif roll < 0.58:
            parts.append(rng.choice(_STRINGS))
        elif roll < 0.85:
            parts.append(rng.choice(_OPS + ("(", ")", "{", "}", "[", "]", ";", ",")))
        elif roll < 0.93:
            parts.append(rng.choice(_COMMENTS))
        else:
            parts.append("#define X 1\n")
        parts.append(rng.choice(_GLUE))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

def test_tokenize_agrees_with_reference_scanner_on_50_fixtures():
    for seed in range(50):
        source = generate_source(seed)
        expected = reference_scan(source)
        stream = tokenize(source, f"gen{seed}.c")
        got = list(zip(stream.text, stream.line, stream.col))
        assert got == expected, f"seed {seed}"


def test_reference_scanner_agreement_includes_kinds():
    # Same fixtures, also checking classify_text is how tokenize labels.
    for seed in range(0, 50, 7):
        stream = tokenize(generate_source(seed), "k.c")
        for text, kind in zip(stream.text, stream.kind):
            assert kind is classify_text(text)


# ---------------------------------------------------------------------------
# classify_text against the transcribed reserved-word list
# ---------------------------------------------------------------------------

# The C/C++ reserved words, copied from the language standards rather
# than imported from the implementation.
_RESERVED = """
    alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char8_t char16_t char32_t class compl const constexpr const_cast
    continue decltype default delete do double dynamic_cast else enum
    explicit export extern false float for friend goto if inline int long
    mutable namespace new noexcept not not_eq nullptr operator or or_eq
    private protected public register reinterpret_cast restrict return
    short signed sizeof static static_assert static_cast struct switch
    template this thread_local throw true try typedef typeid typename
    union unsigned using virtual void volatile wchar_t while xor xor_eq
""".split()


def test_every_reserved_word_classifies_keyword():
    for word in _RESERVED:
        assert classify_text(word) is TokenKind.KEYWORD, word


def test_classify_examples():
    assert classify_text("p") is TokenKind.IDENTIFIER
    assert classify_text("operator") is TokenKind.KEYWORD
    assert classify_text("0x1F") is TokenKind.NUMBER
    assert classify_text("0b101") is TokenKind.NUMBER
    assert classify_text('"s"') is TokenKind.STRING_LITERAL
    assert classify_text("'c'") is TokenKind.CHAR_LITERAL
    assert classify_text("->") is TokenKind.OPERATOR
    assert classify_text(";") is TokenKind.PUNCTUATOR
    assert classify_text("malloc") is TokenKind.IDENTIFIER  # library, not reserved


# ---------------------------------------------------------------------------
# Documented examples
# ---------------------------------------------------------------------------

def test_basic_statement_tokens():
    stream = tokenize("p = malloc(10);", "ex.c")
    assert stream.text == ["p", "=", "malloc", "(", "10", ")", ";"]
    assert stream.kind == [
        TokenKind.IDENTIFIER, TokenKind.OPERATOR, TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATOR, TokenKind.NUMBER, TokenKind.PUNCTUATOR,
        TokenKind.PUNCTUATOR,
    ]


def test_empty_source():
    stream = tokenize("", "empty.c")
    assert len(stream) == 0
    assert stream.text == [] and stream.kind == []
    assert len(stream.line) == len(stream.col) == len(stream.var_id) == 0


def test_comment_dropped_after_delete():
    stream = tokenize("delete [] arr; // done", "d.cc")
    assert stream.text == ["delete", "[", "]", "arr", ";"]


def test_directive_lines_skipped_whole():
    stream = tokenize('#include <stdio.h>\nint x;\n#define N 4\n', "i.c")
    assert stream.text == ["int", "x", ";"]


def test_spliced_line_keeps_physical_line_numbers():
    stream = tokenize("int a\\\n bb;", "s.c")
    assert stream.text == ["int", "a", "bb", ";"]
    # bb starts on physical line 2.
    assert list(stream.line) == [1, 1, 2, 2]


def test_shift_right_is_one_token():
    stream = tokenize("a >> b;", "t.cc")
    assert stream.text == ["a", ">>", "b", ";"]


def test_loc_count_is_pre_strip_line_count():
    stream = tokenize("int a;\n// gone\nint b;\n", "l.c")
    assert stream.loc_count == 3


@pytest.mark.parametrize("source", ["int L", "x = u8", "L", "u\\\n"])
def test_string_prefix_word_at_end_of_file_is_an_identifier(source):
    stream = tokenize(source, "eof.c")
    assert stream.text[-1] in ("L", "u8", "u")
    assert stream.kind[-1] is TokenKind.IDENTIFIER
    assert stream.diagnostics == []


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------

def test_tokenize_adds_no_collector_object_per_token():
    # The columns are lists and arrays of ints, strings and shared kinds;
    # only the containers are tracked by the garbage collector.
    source = "void f ( int n ) { char * p ; p = malloc ( n ) ; free ( p ) ; }\n" * 600
    gc.collect()
    before = len(gc.get_objects())
    stream = tokenize(source, "gc.c")
    added = len(gc.get_objects()) - before
    assert len(stream) >= 10_000
    assert added < len(stream) / 10


def test_equal_texts_in_a_stream_are_one_string_object():
    stream = tokenize("vector < vector < int >> block_size ;\n"
                      "block_size = block_size + 100000 ; other = 100000 >> 2 ;\n",
                      "share.cc")
    for scoped in (False, True):
        if scoped:
            build_scope_tree(stream)  # splits the first ">>" in every column
        first = {}
        for text in stream.text:
            assert first.setdefault(text, text) is text, (scoped, text)
        assert stream.text.count("block_size") == 3
        assert stream.text.count("100000") == 2


# ---------------------------------------------------------------------------
# Golden snippets
# ---------------------------------------------------------------------------

def test_tokenize_matches_the_golden_snippets(fixtures_dir):
    """Exact tokens, kinds, positions, diagnostics and line counts.

    ``lexer_golden.json`` holds 300 seeded snippets of at most 48
    characters built from the cases ``reference_scan`` leaves out:
    backslash-newline splices (LF and CRLF) inside and between tokens,
    CRLF line ends, quotes, ``L``/``u``/``U``/``u8`` prefixes, comment
    markers, ``#`` on and off the start of a line, and stray glyphs.
    The expected output was recorded from the character-at-a-time
    scanner that the master pattern replaced.
    """
    golden = json.loads((fixtures_dir / "lexer_golden.json").read_text())
    assert len(golden["snippets"]) == 300
    for case in golden["snippets"]:
        stream = tokenize(case["source"], "g.c")
        got = {
            "source": case["source"],
            "tokens": [[text, kind.value, line, col] for text, kind, line, col
                       in zip(stream.text, stream.kind, stream.line, stream.col)],
            "diagnostics": [[d.code, d.message, d.line, d.column]
                            for d in stream.diagnostics],
            "loc_count": stream.loc_count,
        }
        assert got == case


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_unterminated_string_reported_and_scan_continues():
    stream = tokenize('char *s = "oops;\nint k;', "u.c")
    codes = [d.code for d in stream.diagnostics]
    assert "UnterminatedString" in codes
    assert "int" in stream.text and "k" in stream.text


def test_unterminated_comment_reported():
    stream = tokenize("int a; /* never closed", "u2.c")
    codes = [d.code for d in stream.diagnostics]
    assert codes == ["UnterminatedComment"]
    assert stream.text == ["int", "a", ";"]


def test_unknown_glyph_becomes_operator_with_warning():
    stream = tokenize("int a @ b;", "g.c")
    assert "UnknownGlyph" in [d.code for d in stream.diagnostics]
    at = [i for i, text in enumerate(stream.text) if text == "@"]
    assert len(at) == 1 and stream.kind[at[0]] is TokenKind.OPERATOR


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_whitespace_insensitive(seed):
    stream = tokenize(generate_source(seed), "r.c")
    # The ";" anchor keeps a leading "#" token off column one, where it
    # would otherwise start a (skipped) directive line.
    again = tokenize("; " + " ".join(stream.text), "r2.c")
    assert again.text[1:] == stream.text
    assert again.kind[1:] == stream.kind


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_index_integrity(seed):
    # The nested template's ">>" is split in place by the scope pass, in
    # every column.
    stream = tokenize("vector < vector < int >> v ;\n" + generate_source(seed),
                      "ii.cc")
    columns = (stream.text, stream.kind, stream.line, stream.col, stream.var_id)
    assert {len(column) for column in columns} == {len(stream)}
    build_scope_tree(stream)
    columns = (stream.text, stream.kind, stream.line, stream.col,
               stream.var_id, stream.partner)
    assert {len(column) for column in columns} == {len(stream)}
    assert stream.text[:8] == ["vector", "<", "vector", "<", "int",
                               ">", ">", "v"]
    assert list(stream.col[5:7]) == [23, 24]
    assert stream.kind[5:7] == [TokenKind.OPERATOR, TokenKind.OPERATOR]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_positions_strictly_increase(seed):
    stream = tokenize(generate_source(seed), "pos.c")
    positions = list(zip(stream.line, stream.col))
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_no_token_spans_a_newline(seed):
    stream = tokenize(generate_source(seed), "nl.c")
    for text in stream.text:
        assert "\n" not in text
