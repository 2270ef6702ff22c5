"""Lexer behaviour against a reference character scanner.

The reference scanner below was written first, straight from the token
classification rules, and works on plain character indexes.
``tokenize`` has to agree with it on lexeme text and source position
over a pile of generated fixture files.
"""

from __future__ import annotations

import random
import re

from hypothesis import given, settings, strategies as st

from zkleak.scopes import build_scope_tree
from zkleak.tokens import (
    LexToken,
    TokenKind,
    classify_text,
    tokenize,
)

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
        got = [(t.text, t.line, t.column) for t in stream]
        assert got == expected, f"seed {seed}"


def test_reference_scanner_agreement_includes_kinds():
    # Same fixtures, also checking classify_text is how tokenize labels.
    for seed in range(0, 50, 7):
        stream = tokenize(generate_source(seed), "k.c")
        for tok in stream:
            assert tok.kind is classify_text(tok.text)


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
    assert stream.texts() == ["p", "=", "malloc", "(", "10", ")", ";"]
    assert [t.kind for t in stream] == [
        TokenKind.IDENTIFIER, TokenKind.OPERATOR, TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATOR, TokenKind.NUMBER, TokenKind.PUNCTUATOR,
        TokenKind.PUNCTUATOR,
    ]


def test_empty_source():
    stream = tokenize("", "empty.c")
    assert len(stream) == 0
    assert stream.get(0) is None


def test_comment_dropped_after_delete():
    stream = tokenize("delete [] arr; // done", "d.cc")
    assert stream.texts() == ["delete", "[", "]", "arr", ";"]


def test_directive_lines_skipped_whole():
    stream = tokenize('#include <stdio.h>\nint x;\n#define N 4\n', "i.c")
    assert stream.texts() == ["int", "x", ";"]


def test_spliced_line_keeps_physical_line_numbers():
    stream = tokenize("int a\\\n bb;", "s.c")
    assert stream.texts() == ["int", "a", "bb", ";"]
    # bb starts on physical line 2.
    assert [t.line for t in stream] == [1, 1, 2, 2]


def test_shift_right_is_one_token():
    stream = tokenize("a >> b;", "t.cc")
    assert stream.texts() == ["a", ">>", "b", ";"]


def test_loc_count_is_pre_strip_line_count():
    stream = tokenize("int a;\n// gone\nint b;\n", "l.c")
    assert stream.loc_count == 3


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def test_unterminated_string_reported_and_scan_continues():
    stream = tokenize('char *s = "oops;\nint k;', "u.c")
    codes = [d.code for d in stream.diagnostics]
    assert "UnterminatedString" in codes
    assert "int" in stream.texts() and "k" in stream.texts()


def test_unterminated_comment_reported():
    stream = tokenize("int a; /* never closed", "u2.c")
    codes = [d.code for d in stream.diagnostics]
    assert codes == ["UnterminatedComment"]
    assert stream.texts() == ["int", "a", ";"]


def test_unknown_glyph_becomes_operator_with_warning():
    stream = tokenize("int a @ b;", "g.c")
    assert "UnknownGlyph" in [d.code for d in stream.diagnostics]
    at = [t for t in stream if t.text == "@"]
    assert len(at) == 1 and at[0].kind is TokenKind.OPERATOR


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_whitespace_insensitive(seed):
    stream = tokenize(generate_source(seed), "r.c")
    # The ";" anchor keeps a leading "#" token off column one, where it
    # would otherwise start a (skipped) directive line.
    again = tokenize("; " + " ".join(stream.texts()), "r2.c")
    assert again.texts()[1:] == stream.texts()
    assert [t.kind for t in again][1:] == [t.kind for t in stream]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_index_integrity(seed):
    # The nested template's ">>" is split in place by the scope pass.
    stream = tokenize("vector < vector < int >> v ;\n" + generate_source(seed),
                      "ii.cc")
    assert all(stream[i].index == i for i in range(len(stream)))
    build_scope_tree(stream)
    assert stream.texts()[:8] == ["vector", "<", "vector", "<", "int",
                                  ">", ">", "v"]
    assert all(stream[i].index == i for i in range(len(stream)))
    assert stream.get(-1) is None and stream.get(len(stream)) is None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_positions_strictly_increase(seed):
    stream = tokenize(generate_source(seed), "pos.c")
    positions = [(t.line, t.column) for t in stream]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_no_token_spans_a_newline(seed):
    stream = tokenize(generate_source(seed), "nl.c")
    for tok in stream:
        assert "\n" not in tok.text
