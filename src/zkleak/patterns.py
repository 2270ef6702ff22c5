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

``compile_pattern`` also records the pattern's anchor: a literal,
character class or non-empty alternation at a fixed token offset (every
unit before it takes one token), preferring word-like texts, so
``%var% = malloc (`` is anchored on ``malloc`` at offset 2.  Matches are
only tried ``offset`` tokens before a token the anchor accepts.  A
``Catalog`` compiles a pattern list into one table from anchor text to
(pattern index, offset) and reads a span once to find every pattern's
starts.  A pattern with no anchor (an optional alternation first, or
only abstractions) is tried at every position.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .defects import Record
from .tokens import TokenKind, TokenStream, TYPE_KEYWORDS


class BadPatternUnit(ValueError):
    """Raised by compile_pattern for an unknown unit spelling."""

    def __init__(self, unit: str, position: int) -> None:
        super().__init__(f"bad pattern unit {unit!r} at position {position}")
        self.unit = unit
        self.position = position


class Literal(Record):
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class CharClass(Record):
    __slots__ = ("chars",)

    def __init__(self, chars: FrozenSet[str]) -> None:
        self.chars = chars


class Alternation(Record):
    __slots__ = ("choices", "allows_empty")

    def __init__(self, choices: Tuple[str, ...], allows_empty: bool = False) -> None:
        self.choices, self.allows_empty = choices, allows_empty


class Abstract(Record):
    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind  # one of ABSTRACT_KINDS


PatternUnit = Union[Literal, CharClass, Alternation, Abstract]

ABSTRACT_KINDS = frozenset([
    "any", "name", "type", "num", "bool", "comp", "str",
    "var", "varid", "op", "or", "oror",
])

COMPARISON_TEXTS = frozenset(["<", ">", "<=", ">=", "==", "!="])


class DefectPattern(Record):
    __slots__ = ("units", "source", "label", "anchor")

    def __init__(self, units: Tuple[PatternUnit, ...], source: str, label: str = "",
                 anchor: Optional[Tuple[int, FrozenSet[str]]] = None) -> None:
        self.units, self.source, self.label = units, source, label
        # (offset, texts): the token at *offset* in every match has one of
        # *texts*.  None makes the matcher try every position.
        self.anchor = anchor


class MatchSpan:
    """Half-open token index range, and the index of the token each
    abstract unit bound, by unit position."""

    __slots__ = ("first_p", "end_p", "bindings")

    def __init__(self, first_p: int, end_p: int, bindings: Dict[int, int]) -> None:
        self.first_p, self.end_p, self.bindings = first_p, end_p, bindings


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
    return DefectPattern(tuple(units), text, label, _anchor(units))


def _anchor(units: List[PatternUnit]) -> Optional[Tuple[int, FrozenSet[str]]]:
    """The first word-like fixed-offset unit, else the first one at all."""
    candidates: List[Tuple[int, FrozenSet[str]]] = []
    for offset, unit in enumerate(units):
        if isinstance(unit, Literal):
            candidates.append((offset, frozenset([unit.text])))
        elif isinstance(unit, CharClass):
            candidates.append((offset, unit.chars))
        elif isinstance(unit, Alternation):
            if unit.allows_empty:
                break  # later units sit at a variable offset
            candidates.append((offset, frozenset(unit.choices)))
    for offset, texts in candidates:
        if all(t[0].isalnum() or t[0] == "_" for t in texts):
            return offset, texts
    return candidates[0] if candidates else None


def unit_matches(unit: PatternUnit, stream: TokenStream, i: int) -> bool:
    """Whether *unit* accepts token *i* (alternation emptiness excluded)."""
    text = stream.text[i]
    if isinstance(unit, Literal):
        return text == unit.text
    if isinstance(unit, CharClass):
        return len(text) == 1 and text in unit.chars
    if isinstance(unit, Alternation):
        return text in unit.choices
    kind = unit.kind
    if kind == "any":
        return True
    token_kind = stream.kind[i]
    if kind == "name":
        # A variable or type word: "int a" is "%name% %name%".
        return token_kind is TokenKind.IDENTIFIER or text in TYPE_KEYWORDS
    if kind == "type":
        return text in TYPE_KEYWORDS or (
            token_kind is TokenKind.IDENTIFIER and text in stream.known_types
        )
    if kind == "num":
        return token_kind is TokenKind.NUMBER
    if kind == "bool":
        return text in ("true", "false")
    if kind == "comp":
        return text in COMPARISON_TEXTS
    if kind == "str":
        return token_kind is TokenKind.STRING_LITERAL
    if kind in ("var", "varid"):
        # On a scope-annotated stream a variable must actually resolve;
        # before annotation any identifier is accepted.
        if token_kind is not TokenKind.IDENTIFIER:
            return False
        return stream.var_id[i] > 0 if stream.scoped else True
    if kind == "op":
        return token_kind is TokenKind.OPERATOR
    if kind == "or":
        return text == "|"
    if kind == "oror":
        return text == "||"
    raise AssertionError(f"unhandled abstract kind {kind!r}")


def _try_match(stream: TokenStream, pattern: DefectPattern,
               start: int) -> Optional[MatchSpan]:
    texts = stream.text
    n = len(texts)
    i = start
    bindings: Dict[int, int] = {}
    for idx, unit in enumerate(pattern.units):
        if isinstance(unit, Alternation):
            if i < n and texts[i] in unit.choices:
                i += 1
            elif unit.allows_empty:
                continue
            else:
                return None
        else:
            if i >= n or not unit_matches(unit, stream, i):
                return None
            if isinstance(unit, Abstract):
                bindings[idx] = i
            i += 1
    if i == start:
        return None
    return MatchSpan(start, i, bindings)


def match_all(stream: TokenStream, pattern: DefectPattern) -> List[MatchSpan]:
    """All non-overlapping matches of *pattern*, in stream order."""
    return match_in_range(stream, pattern, 0, len(stream))


def match_in_range(stream: TokenStream, pattern: DefectPattern,
                   begin: int, end: int,
                   starts: Optional[Sequence[int]] = None) -> List[MatchSpan]:
    """match_all restricted to token indexes [begin, end).

    Only the ascending positions *starts* are tried; by default those
    where the pattern's anchor allows a match, or every position.
    """
    if starts is None:
        starts = (range(begin, end) if pattern.anchor is None
                  else Catalog([pattern]).starts(stream, begin, end).get(0, []))
    spans: List[MatchSpan] = []
    resume = begin
    for i in starts:
        if i < resume:
            continue
        span = _try_match(stream, pattern, i)
        if span is not None and span.end_p <= end:
            spans.append(span)
            resume = span.end_p
    return spans


class Catalog:
    """A pattern list with its dispatch table, built once per run.

    ``by_text`` maps each anchor text to the (pattern index, offset)
    pairs anchored on it; patterns without an anchor are not in it.
    """

    def __init__(self, patterns: Sequence[DefectPattern]) -> None:
        self.patterns = list(patterns)
        self.by_text: Dict[str, List[Tuple[int, int]]] = {}
        for idx, pattern in enumerate(self.patterns):
            if pattern.anchor is not None:
                offset, texts = pattern.anchor
                for text in texts:
                    self.by_text.setdefault(text, []).append((idx, offset))

    def starts(self, stream: TokenStream, begin: int,
               end: int) -> Dict[int, List[int]]:
        """Pattern index -> ascending candidate starts in [begin, end)."""
        found: Dict[int, List[int]] = {}
        by_text = self.by_text
        for i, text in enumerate(stream.text[begin:end], begin):
            hits = by_text.get(text)
            if hits is not None:
                for idx, offset in hits:
                    start = i - offset
                    if start >= begin:
                        found.setdefault(idx, []).append(start)
        return found


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


def compile_catalog(catalog=None) -> Catalog:
    """A Catalog from None (built-ins), a mapping, a sequence or a Catalog."""
    if isinstance(catalog, Catalog):
        return catalog
    return Catalog(catalog_patterns(catalog))


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
