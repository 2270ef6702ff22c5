"""Token-pattern compilation and fuzzy matching.

Patterns are whitespace-separated unit strings.  A unit is one of:

* a literal token text (``free``, ``(``, ``=``);
* a character class ``[abc]`` that matches any single-character token
  drawn from the brackets;
* an alternation ``void|int|float|char`` that matches one token whose
  text is any choice; a trailing ``|`` (``void|int|``) additionally lets
  the unit match zero tokens;
* an abstraction ``%name%``, ``%type%``, ``%num%``, ``%bool%``,
  ``%comp%``, ``%str%``, ``%var%``, ``%varid%``, ``%op%``, ``%or%``,
  ``%oror%`` or ``%any%``.

Matching is greedy and does not backtrack: an alternation that can
consume the current token always does.  ``match_all`` scans left to
right and never returns overlapping spans; after a match it resumes at
the first token past the match, after a failure it re-anchors one token
later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .tokens import LexToken, TokenKind, TokenStream, TYPE_KEYWORDS


class BadPatternUnit(ValueError):
    """Raised by compile_pattern for an unknown unit spelling."""

    def __init__(self, unit: str, position: int) -> None:
        super().__init__(f"bad pattern unit {unit!r} at position {position}")
        self.unit = unit
        self.position = position


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class CharClass:
    chars: FrozenSet[str]


@dataclass(frozen=True)
class Alternation:
    choices: Tuple[str, ...]
    allows_empty: bool = False


@dataclass(frozen=True)
class Abstract:
    kind: str  # one of ABSTRACT_KINDS


PatternUnit = Union[Literal, CharClass, Alternation, Abstract]

ABSTRACT_KINDS = frozenset([
    "any", "name", "type", "num", "bool", "comp", "str",
    "var", "varid", "op", "or", "oror",
])

COMPARISON_TEXTS = frozenset(["<", ">", "<=", ">=", "==", "!="])


@dataclass(frozen=True)
class DefectPattern:
    units: Tuple[PatternUnit, ...]
    source: str
    label: str = ""


@dataclass
class MatchSpan:
    """Half-open token index range plus bindings for abstract units."""

    first_p: int
    end_p: int
    bindings: Dict[int, LexToken] = field(default_factory=dict)


def compile_pattern(text: str, label: str = "") -> DefectPattern:
    units: List[PatternUnit] = []
    for position, raw in enumerate(text.split()):
        if raw.startswith("%") and raw.endswith("%") and len(raw) > 2:
            kind = raw[1:-1]
            if kind not in ABSTRACT_KINDS:
                raise BadPatternUnit(raw, position)
            units.append(Abstract(kind))
        elif raw.startswith("[") and raw.endswith("]") and len(raw) > 2:
            units.append(CharClass(frozenset(raw[1:-1])))
        elif "|" in raw:
            choices = tuple(part for part in raw.split("|") if part)
            if not choices:
                # A bare "|" is ambiguous; %or% spells the literal bar.
                raise BadPatternUnit(raw, position)
            units.append(Alternation(choices, allows_empty=raw.endswith("|")))
        else:
            units.append(Literal(raw))
    if not units:
        raise BadPatternUnit(text, 0)
    return DefectPattern(tuple(units), text, label)


def unit_matches(unit: PatternUnit, token: LexToken, stream: TokenStream) -> bool:
    """Whether *unit* accepts *token* (alternation emptiness excluded)."""
    if isinstance(unit, Literal):
        return token.text == unit.text
    if isinstance(unit, CharClass):
        return len(token.text) == 1 and token.text in unit.chars
    if isinstance(unit, Alternation):
        return token.text in unit.choices
    kind = unit.kind
    if kind == "any":
        return True
    if kind == "name":
        # A variable or type word: "int a" is "%name% %name%".
        return token.kind is TokenKind.IDENTIFIER or token.text in TYPE_KEYWORDS
    if kind == "type":
        return token.text in TYPE_KEYWORDS or (
            token.kind is TokenKind.IDENTIFIER and token.text in stream.known_types
        )
    if kind == "num":
        return token.kind is TokenKind.NUMBER
    if kind == "bool":
        return token.text in ("true", "false")
    if kind == "comp":
        return token.text in COMPARISON_TEXTS
    if kind == "str":
        return token.kind is TokenKind.STRING_LITERAL
    if kind in ("var", "varid"):
        # On a scope-annotated stream a variable must actually resolve;
        # before annotation any identifier is accepted.
        if token.kind is not TokenKind.IDENTIFIER:
            return False
        return token.var_id > 0 if stream.scoped else True
    if kind == "op":
        return token.kind is TokenKind.OPERATOR
    if kind == "or":
        return token.text == "|"
    if kind == "oror":
        return token.text == "||"
    raise AssertionError(f"unhandled abstract kind {kind!r}")


def _try_match(stream: TokenStream, pattern: DefectPattern,
               anchor: LexToken) -> Optional[MatchSpan]:
    token: Optional[LexToken] = anchor
    bindings: Dict[int, LexToken] = {}
    consumed = 0
    for idx, unit in enumerate(pattern.units):
        if isinstance(unit, Alternation):
            if token is not None and token.text in unit.choices:
                consumed += 1
                token = stream.get(token.index + 1)
            elif unit.allows_empty:
                continue
            else:
                return None
        else:
            if token is None or not unit_matches(unit, token, stream):
                return None
            if isinstance(unit, Abstract):
                bindings[idx] = token
            consumed += 1
            token = stream.get(token.index + 1)
    if consumed == 0:
        return None
    return MatchSpan(anchor.index, anchor.index + consumed, bindings)


def match_all(stream: TokenStream, pattern: DefectPattern) -> List[MatchSpan]:
    """All non-overlapping matches of *pattern*, in stream order."""
    return match_in_range(stream, pattern, 0, len(stream))


def match_in_range(stream: TokenStream, pattern: DefectPattern,
                   begin: int, end: int) -> List[MatchSpan]:
    """match_all restricted to token indexes [begin, end)."""
    spans: List[MatchSpan] = []
    i = begin
    while i < end:
        span = _try_match(stream, pattern, stream[i])
        if span is not None and span.end_p <= end:
            spans.append(span)
            i = span.end_p
        else:
            i += 1
    return spans


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

_BUILTIN_SOURCES = {
    # allocation
    "alloc.malloc": "%var% = malloc (",
    "alloc.calloc": "%var% = calloc (",
    "alloc.realloc": "%var% = realloc (",
    "alloc.new": "%var% = new %type%",
    "alloc.new_array": "%var% = new %type% [",
    # release
    "free.free": "free ( %var% )",
    "free.delete": "delete %var%",
    "free.delete_array": "delete [ ] %var%",
    # ownership transfer
    "transfer.assign": "%var% = %var%",
    "transfer.return": "return %var%",
    "transfer.incr_post": "%var% ++",
    "transfer.decr_post": "%var% --",
    "transfer.incr_pre": "++ %var%",
    "transfer.decr_pre": "-- %var%",
    "transfer.null_assign": "%var% = NULL|nullptr|0",
}


def builtin_patterns() -> Dict[str, DefectPattern]:
    """The labeled catalog driving allocation/release/transfer detection."""
    return {
        label: compile_pattern(source, label)
        for label, source in _BUILTIN_SOURCES.items()
    }


def catalog_patterns(catalog=None) -> List[DefectPattern]:
    """Normalize a catalog (mapping or sequence of patterns) into a list."""
    if catalog is None:
        catalog = builtin_patterns()
    if isinstance(catalog, dict):
        return list(catalog.values())
    return list(catalog)


def load_pattern_file(path: str) -> Dict[str, DefectPattern]:
    """Parse a user catalog of ``label: pattern`` lines.

    Blank lines and ``#`` comments are ignored.  Labels that collide with
    built-ins override them when the two catalogs are merged.
    """
    catalog: Dict[str, DefectPattern] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, sep, source = line.partition(":")
            if not sep or not label.strip() or not source.strip():
                raise ValueError(f"{path}:{lineno}: expected 'label: pattern'")
            catalog[label.strip()] = compile_pattern(source.strip(), label.strip())
    return catalog
