"""Lexical analysis of C/C++ source text.

The analyzer never builds an AST; everything downstream (scope discovery,
pattern matching, control-flow recovery) works directly on the token
stream produced here.  A token is an index into the stream's parallel
columns (text, kind, physical line and column, var id), so matching and
annotation passes step to a neighbour by index arithmetic and build no
object per token.

Scanning is one compiled master pattern, matched again and again from
the end of the previous match over the raw text: each match is the
blanks before one lexeme plus the lexeme, named by its group.  Positions
are physical lines and columns, kept by counting the line breaks each
match spans.

Preprocessing is deliberately shallow: directive lines are skipped whole,
comments and GNU ``__attribute__((...))`` specifiers are stripped, and
backslash-newline splices are honoured.  Macro expansion is out of scope;
unexpanded macro names simply lex as identifiers.
"""

from __future__ import annotations

import re
from array import array
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Set

if TYPE_CHECKING:
    from .scopes import SymbolEntry


class TokenKind(Enum):
    IDENTIFIER = "Identifier"
    KEYWORD = "Keyword"
    NUMBER = "Number"
    STRING_LITERAL = "StringLiteral"
    CHAR_LITERAL = "CharLiteral"
    OPERATOR = "Operator"
    PUNCTUATOR = "Punctuator"


# C and C++ reserved words.  Library routines such as malloc/free are NOT
# keywords; they lex as identifiers and are recognised later by pattern
# label, which is what lets user catalogs redefine them.
KEYWORDS = frozenset("""
    alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char8_t char16_t char32_t class compl const constexpr const_cast
    continue decltype default delete do double dynamic_cast else enum
    explicit export extern false float for friend goto if inline int long
    mutable namespace new noexcept not not_eq nullptr operator or or_eq
    private protected public register reinterpret_cast restrict return
    short signed sizeof static static_assert static_cast struct switch
    template this thread_local throw true try typedef typeid typename
    union unsigned using virtual void volatile wchar_t while xor xor_eq
""".split())

# Built-in type words; these double as declaration anchors in the scope
# pass and as %type% / %name% matches in the pattern engine.
TYPE_KEYWORDS = frozenset("""
    auto bool char char8_t char16_t char32_t double float int long short
    signed unsigned void wchar_t
""".split())

# Brackets, semicolons and commas are punctuators; everything else in the
# operator table below is an Operator.
PUNCTUATOR_TEXTS = frozenset(["(", ")", "[", "]", "{", "}", ";", ","])

# Longest-first so the scanner can use maximal munch.
OPERATOR_TEXTS = (
    "<<=", ">>=", "...", "->*", "<=>",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "::", ".*",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ":", ".",
)
_OPERATOR_SET = frozenset(OPERATOR_TEXTS)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_DIGITS = frozenset("0123456789")


class Diagnostic:
    """A recoverable problem noticed while scanning or later passes."""

    __slots__ = ("code", "message", "file", "line", "column")

    def __init__(self, code: str, message: str, file: str, line: int,
                 column: int) -> None:
        self.code, self.message, self.file = code, message, file
        self.line, self.column = line, column

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.code}: {self.message}"


class TokenStream:
    """Token columns for one translation unit; a token is its index.

    ``text[i]``, ``kind[i]``, ``line[i]`` and ``col[i]`` describe token
    *i*; equal texts are one string object, and ``kind`` holds the shared
    TokenKind members, so ``kind[i] is TokenKind.X`` tests a kind.  The
    stream is immutable after construction except for the scope pass,
    which splits ``>>`` where it closes two templates, writes ``var_id``:
    per identifier, the var id of the declaration it names, or zero;
    fills ``partner``: per token, the index of the matching bracket for
    ``()``, ``[]`` and ``{}``, or -1 for any other token and for a bracket
    left unmatched; and fills ``vars``: every variable declaration in
    creation order, so that a var id is the index of its declaration there
    (``vars[0]`` is None).  The file name is the stream's alone.
    """

    def __init__(self, file: str) -> None:
        self.file = file
        self.loc_count = 0
        self.diagnostics: List[Diagnostic] = []
        self.text: List[str] = []
        self.kind: List[TokenKind] = []
        self.line = array("i")
        self.col = array("i")
        self.var_id = array("i")
        # Set by the scope pass.
        self.scoped = False
        self.known_types: Set[str] = set()
        self.partner = array("i")
        self.vars: List[Optional[SymbolEntry]] = [None]

    def replace(self, text: List[str], kind: List[TokenKind], line: array,
                col: array) -> None:
        """Swap in re-split columns with no var ids yet (scope pass only)."""
        self.text, self.kind, self.line, self.col = text, kind, line, col
        self.var_id = array("i", [0]) * len(text)

    def __len__(self) -> int:
        return len(self.text)

    def var(self, var_id: int) -> Optional[SymbolEntry]:
        """The declaration of *var_id*, or None for an id that names none
        (0, the return slot, or one out of range)."""
        return self.vars[var_id] if 0 < var_id < len(self.vars) else None


def classify_text(text: str) -> TokenKind:
    """Kind of a token as a pure function of its text.

    Mirrors the scanner's own decisions so that re-tokenizing a space
    joined stream is stable.  Unknown single glyphs fall through to
    Operator, matching the scanner's recovery behaviour.
    """
    if not text:
        return TokenKind.OPERATOR
    if text in KEYWORDS:
        return TokenKind.KEYWORD
    first = text[0]
    if first in _DIGITS:
        return TokenKind.NUMBER
    if first == "." and len(text) > 1 and text[1] in _DIGITS:
        return TokenKind.NUMBER
    body = text
    for prefix in ("u8", "L", "u", "U"):
        if text.startswith(prefix) and len(text) > len(prefix):
            rest = text[len(prefix):]
            if rest[0] in "\"'":
                body = rest
                break
    if body.startswith('"'):
        return TokenKind.STRING_LITERAL
    if body.startswith("'"):
        return TokenKind.CHAR_LITERAL
    if text in _OPERATOR_SET:
        return TokenKind.OPERATOR
    if text in PUNCTUATOR_TEXTS:
        return TokenKind.PUNCTUATOR
    if first in _IDENT_START:
        return TokenKind.IDENTIFIER
    return TokenKind.OPERATOR


# The master pattern: leading blanks, then one lexeme named by its group.
# Alternatives are tried in order, so a prefixed literal wins over its
# prefix word, comments over "/", numbers over "." and longer operators
# over their prefixes.  A backslash-newline splice is transparent inside
# words, numbers, line comments and directives, kept inside literals
# (CRLF as LF) and a separator anywhere else.  A literal escape takes the
# next character, a splice or nothing at the end of the text; a bare line
# break leaves the literal unterminated.  A GNU "__attribute__((...))", its
# parens nested one level at most, is skipped: "p __attribute__((x)) = q" is "p = q".
# One naming "cleanup" is kept, as the walk has no model of a cleanup function.
_SPLICE = r"(?:\\\r?\n)"
_OPERATORS = "|".join(map(re.escape, OPERATOR_TEXTS))
_MASTER = re.compile(rf"""[ \t\r\f\v]*(?:
    (?P<punct>[()\[\]{{}};,])
  | (?P<literal>(?P<prefix>(?:u{_SPLICE}*8|[LUu]){_SPLICE}*)?(?P<quote>["'])
        (?:[^"'\\\n]+|\\(?:\r?\n|[^\n])?|(?!(?P=quote))["'])*(?P<close>(?P=quote))?)
  | (?P<attribute>__attribute__\s*\(\s*\((?!(?:[^()]|\([^()]*\))*\b(?:__)?cleanup(?:__)?\b)
        (?:[^()]|\([^()]*\))*\)\s*\))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:{_SPLICE}+[A-Za-z0-9_]+)*)
  | (?P<number>\.?[0-9](?:{_SPLICE}*(?:[eEpP](?:{_SPLICE}*[+-])?|[A-Za-z0-9_.]))*)
  | (?P<nl>\n)
  | (?P<comment>//(?:[^\\\n]+|{_SPLICE}|\\)*)
  | (?P<block>/\*)
  | (?P<op>{_OPERATORS})
  | (?P<splice>{_SPLICE})
  | (?P<directive>\#(?:[^\\\n]+|{_SPLICE}|\\)*)
  | (?P<glyph>[^ \t\r\f\v\n])
)""", re.VERBOSE)
_SPLICE_RE = re.compile(_SPLICE)
# Kinds fixed by the group alone; a word that is reserved is a Keyword.
_TOKEN_KINDS = {"punct": TokenKind.PUNCTUATOR, "op": TokenKind.OPERATOR,
                "ident": TokenKind.IDENTIFIER, "number": TokenKind.NUMBER}


def tokenize(source: str, file: str = "<memory>") -> TokenStream:
    """Scan *source* into a TokenStream.

    Never raises on malformed input: unterminated strings and comments
    are recorded as diagnostics and scanning resumes on the next line;
    stray glyphs become Operator tokens with a warning.
    """
    stream = TokenStream(file)
    stream.loc_count = source.count("\n") + (1 if source and not source.endswith("\n") else 0)
    share = {}.setdefault  # equal texts become one object
    add_text = stream.text.append
    add_kind = stream.kind.append
    add_line = stream.line.append
    add_col = stream.col.append
    diagnostics = stream.diagnostics
    match = _MASTER.match
    line = 1
    line_start = 0  # offset of the first character of the current line
    at_line_start = True
    m = match(source)

    while m is not None:  # None once only blanks are left
        group = m.lastgroup
        pos = m.start(group)
        end = m.end()
        col = pos - line_start + 1
        kind = _TOKEN_KINDS.get(group)
        if kind is not None:
            text = m.group(group)
            if "\\" in text:  # a word or number continued over splices
                text = _SPLICE_RE.sub("", text)
            if text in KEYWORDS:
                kind = TokenKind.KEYWORD
            add_text(share(text, text))
            add_kind(kind)
            add_line(line)
            add_col(col)
            at_line_start = False
        elif group == "nl":
            at_line_start = True
        elif group == "literal":
            quote_at = m.start("quote")
            quote = source[quote_at]
            if m.start("close") < 0:
                # Reported where the quote sits, after any prefix.
                q_line = line + source.count("\n", pos, quote_at)
                q_start = max(line_start, source.rfind("\n", pos, quote_at) + 1)
                code = "UnterminatedString" if quote == '"' else "UnterminatedCharLiteral"
                diagnostics.append(Diagnostic(code, f"missing closing {quote}",
                                              file, q_line, quote_at - q_start + 1))
            literal = source[quote_at:end].replace("\\\r\n", "\\\n")
            prefix = _SPLICE_RE.sub("", source[pos:quote_at])
            text = prefix + literal
            add_text(share(text, text))
            add_kind(TokenKind.STRING_LITERAL if quote == '"' else TokenKind.CHAR_LITERAL)
            add_line(line)
            add_col(col)
            at_line_start = False
        elif group == "block":
            close = source.find("*/", end)
            if close < 0:
                diagnostics.append(Diagnostic("UnterminatedComment",
                                              "block comment never closed",
                                              file, line, col))
            end = len(source) if close < 0 else close + 2
            at_line_start = False
        elif group == "glyph" or (group == "directive" and not at_line_start):
            # A stray glyph, or "#" after a token on its line: keep going,
            # but say so.
            ch = source[pos]
            end = pos + 1
            diagnostics.append(Diagnostic("UnknownGlyph", f"unexpected character {ch!r}",
                                          file, line, col))
            add_text(share(ch, ch))
            add_kind(TokenKind.OPERATOR)
            add_line(line)
            add_col(col)
            at_line_start = False
        # Splices, line comments, directives and attributes are skipped and
        # leave the line start as it was.

        if kind is None or len(text) < end - pos:  # may span lines
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        m = match(source, end)

    stream.var_id = array("i", [0]) * len(stream.text)
    return stream
