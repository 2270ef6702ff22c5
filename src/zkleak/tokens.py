"""Lexical analysis of C/C++ source text.

The analyzer never builds an AST; everything downstream (scope discovery,
pattern matching, control-flow recovery) works directly on the token
stream produced here.  Tokens sit in one list and know their own index, so
matching and annotation passes step to a neighbour by index arithmetic,
and each token records its physical source position.

Preprocessing is deliberately shallow: directive lines are skipped whole,
comments are stripped, and backslash-newline splices are honoured.  Macro
expansion is out of scope; unexpanded macro names simply lex as
identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Set


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
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")

_STRING_PREFIXES = frozenset(["L", "u", "U", "u8"])


@dataclass
class Diagnostic:
    """A recoverable problem noticed while scanning or later passes."""

    code: str
    message: str
    file: str
    line: int
    column: int

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.code}: {self.message}"


@dataclass(eq=False, slots=True)
class LexToken:
    text: str
    kind: TokenKind
    file: str
    line: int
    column: int
    # Filled in by the scope pass; zero means "not annotated / unresolved".
    scope_id: int = 0
    var_id: int = 0
    index: int = -1

    def __repr__(self) -> str:
        return f"LexToken({self.text!r}, {self.kind.value}, {self.line}:{self.column})"


class TokenStream:
    """Token list for one translation unit; ``stream[i].index == i``.

    The stream is immutable after construction except for the scope pass,
    which may re-split greedy ``>>`` tokens and annotates scope_id/var_id.
    Neighbours are read by index: ``get(tok.index - 1)`` is the previous
    token, or None at the start of the stream.
    """

    def __init__(self, file: str) -> None:
        self.file = file
        self.loc_count = 0
        self.diagnostics: List[Diagnostic] = []
        # Set by the scope pass.
        self.scoped = False
        self.known_types: Set[str] = set()
        self._tokens: List[LexToken] = []

    def append(self, token: LexToken) -> None:
        token.index = len(self._tokens)
        self._tokens.append(token)

    def split_token(self, index: int, parts: List[LexToken]) -> None:
        """Replace the token at *index* with *parts* (scope pass only)."""
        self._tokens[index:index + 1] = parts
        for i in range(index, len(self._tokens)):
            self._tokens[i].index = i

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[LexToken]:
        return iter(self._tokens)

    def __getitem__(self, index: int) -> LexToken:
        return self._tokens[index]

    def get(self, index: int) -> Optional[LexToken]:
        """The token at *index*, or None outside the stream."""
        if 0 <= index < len(self._tokens):
            return self._tokens[index]
        return None

    def texts(self) -> List[str]:
        return [t.text for t in self._tokens]


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


class _Scanner:
    """Character cursor with physical line/column tracking.

    Backslash-newline splices are consumed transparently by advance(), so
    a token started after a splice carries the physical line of its first
    real character.
    """

    def __init__(self, source: str) -> None:
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.src)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def advance(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def splice(self) -> bool:
        """Consume a backslash-newline pair if present."""
        if self.peek() == "\\":
            if self.peek(1) == "\n":
                self.advance()
                self.advance()
                return True
            if self.peek(1) == "\r" and self.peek(2) == "\n":
                self.advance()
                self.advance()
                self.advance()
                return True
        return False


def tokenize(source: str, file: str = "<memory>") -> TokenStream:
    """Scan *source* into a TokenStream.

    Never raises on malformed input: unterminated strings and comments
    are recorded as diagnostics and scanning resumes on the next line;
    stray glyphs become Operator tokens with a warning.
    """
    stream = TokenStream(file)
    stream.loc_count = source.count("\n") + (1 if source and not source.endswith("\n") else 0)
    sc = _Scanner(source)

    def emit(text: str, kind: TokenKind, line: int, col: int) -> None:
        stream.append(LexToken(text, kind, file, line, col))

    def warn(code: str, message: str, line: int, col: int) -> None:
        stream.diagnostics.append(Diagnostic(code, message, file, line, col))

    at_line_start = True
    while not sc.at_end():
        if sc.splice():
            continue
        ch = sc.peek()

        if ch == "\n":
            sc.advance()
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            sc.advance()
            continue

        # Comments.
        if ch == "/" and sc.peek(1) == "/":
            while not sc.at_end() and sc.peek() != "\n":
                if not sc.splice():
                    sc.advance()
            continue
        if ch == "/" and sc.peek(1) == "*":
            line, col = sc.line, sc.col
            sc.advance()
            sc.advance()
            closed = False
            while not sc.at_end():
                if sc.peek() == "*" and sc.peek(1) == "/":
                    sc.advance()
                    sc.advance()
                    closed = True
                    break
                sc.advance()
            if not closed:
                warn("UnterminatedComment", "block comment never closed", line, col)
            at_line_start = False
            continue

        # Preprocessor directives are skipped whole, including spliced
        # continuation lines.
        if ch == "#" and at_line_start:
            while not sc.at_end() and sc.peek() != "\n":
                if not sc.splice():
                    sc.advance()
            continue

        at_line_start = False
        line, col = sc.line, sc.col

        # Identifier / keyword, possibly a string prefix.
        if ch in _IDENT_START:
            text = sc.advance()
            while not sc.at_end():
                if sc.splice():
                    continue
                if sc.peek() in _IDENT_CONT:
                    text += sc.advance()
                else:
                    break
            if text in _STRING_PREFIXES and sc.peek() in "\"'":
                quote = sc.peek()
                lit = _scan_quoted(sc, warn)
                kind = TokenKind.STRING_LITERAL if quote == '"' else TokenKind.CHAR_LITERAL
                emit(text + lit, kind, line, col)
                continue
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            emit(text, kind, line, col)
            continue

        # Numbers: digit-led, or a dot followed by a digit.  The scan is
        # pp-number flavoured, which keeps hex, binary, floats, suffixes
        # and exponent signs in a single token.
        if ch in _DIGITS or (ch == "." and sc.peek(1) in _DIGITS):
            text = sc.advance()
            while not sc.at_end():
                if sc.splice():
                    continue
                nxt = sc.peek()
                if nxt in _IDENT_CONT or nxt == ".":
                    text += sc.advance()
                elif nxt in "+-" and text[-1] in "eEpP" and len(text) > 1:
                    text += sc.advance()
                else:
                    break
            emit(text, TokenKind.NUMBER, line, col)
            continue

        # String / char literals.
        if ch in "\"'":
            quote = ch
            lit = _scan_quoted(sc, warn)
            kind = TokenKind.STRING_LITERAL if quote == '"' else TokenKind.CHAR_LITERAL
            emit(lit, kind, line, col)
            continue

        # Operators by maximal munch, then punctuators.
        matched = None
        for op in OPERATOR_TEXTS:
            if sc.src.startswith(op, sc.pos):
                matched = op
                break
        if matched is not None:
            for _ in matched:
                sc.advance()
            emit(matched, TokenKind.OPERATOR, line, col)
            continue
        if ch in PUNCTUATOR_TEXTS:
            sc.advance()
            emit(ch, TokenKind.PUNCTUATOR, line, col)
            continue

        # Unknown glyph: keep going, but say so.
        sc.advance()
        warn("UnknownGlyph", f"unexpected character {ch!r}", line, col)
        emit(ch, TokenKind.OPERATOR, line, col)

    return stream


def _scan_quoted(sc: _Scanner, warn) -> str:
    """Scan a quoted literal starting at the opening quote.

    An unterminated literal ends at the line break and is reported; the
    escaped-newline form is the only way a literal may span lines.
    """
    quote = sc.peek()
    line, col = sc.line, sc.col
    text = sc.advance()
    while not sc.at_end():
        ch = sc.peek()
        if ch == "\n":
            code = "UnterminatedString" if quote == '"' else "UnterminatedCharLiteral"
            warn(code, f"missing closing {quote}", line, col)
            return text
        if ch == "\\":
            if sc.splice():
                text += "\\\n"
                continue
            text += sc.advance()
            if not sc.at_end() and sc.peek() != "\n":
                text += sc.advance()
            continue
        text += sc.advance()
        if ch == quote:
            return text
    code = "UnterminatedString" if quote == '"' else "UnterminatedCharLiteral"
    warn(code, f"missing closing {quote}", line, col)
    return text
