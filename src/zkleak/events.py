"""Memory events recovered from CFG node spans.

Each CFG node span is pattern matched against the release/allocation/
transfer catalog; hits become typed events, cached per node, that the
interpreter feeds to ownership machines and the class rules read back.
Adjacency guards keep the fuzzy patterns from firing on lookalikes
(``q = p + 1`` is not an ownership copy, ``free(a[i])`` does not
release ``a``).

``RETURN_SLOT`` is a pseudo variable id owning blocks allocated directly
in a return expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .graphs import Cfg, CfgNode, FuncId
from .patterns import Catalog, DefectPattern, MatchSpan, match_in_range
from .scopes import split_top_level, text_at
from .tokens import LexToken, TokenKind, TokenStream

RETURN_SLOT = -1


@dataclass(frozen=True)
class AllocEvent:
    pos: int
    line: int
    fn: str  # malloc | calloc | realloc | new | new_array
    owner: int
    owner_name: str


@dataclass(frozen=True)
class FreeEvent:
    pos: int
    line: int
    fn: str  # free | delete | delete_array
    var: int
    var_name: str


@dataclass(frozen=True)
class AssignEvent:
    pos: int
    line: int
    dst: int
    src: int


@dataclass(frozen=True)
class NullAssignEvent:
    pos: int
    line: int
    var: int


@dataclass(frozen=True)
class PtrArithEvent:
    pos: int
    line: int
    var: int


@dataclass(frozen=True)
class ReturnVarEvent:
    pos: int
    line: int
    var: int


@dataclass(frozen=True)
class CallEvent:
    pos: int
    line: int
    callee: FuncId
    args: Tuple[Optional[int], ...]
    dst: Optional[int]


Event = object  # union of the dataclasses above; kept loose on purpose


_PRIORITY = {"alloc": 0, "free": 1, "transfer": 2}


def _lhs_ok(stream: TokenStream, tok: LexToken) -> bool:
    """Assignment target guard: plain variable, declarator, or ``this->``.

    A ``*`` right before the variable is fine when it belongs to a
    declarator (``char *a = ...``) but disqualifies a store through the
    pointer (``*q = ...``); the token in front of the star run tells the
    two apart.
    """
    prev = stream.get(tok.index - 1)
    if prev is None:
        return True
    if prev.text == ".":
        return False
    if prev.text == "->":
        holder = stream.get(prev.index - 1)
        return holder is not None and holder.text == "this"
    if prev.text == "*":
        before = stream.get(prev.index - 1)
        while before is not None and before.text in ("*", "const"):
            before = stream.get(before.index - 1)
        if before is None or before.text == "return":
            return False
        if before.text == ",":
            return True
        return before.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
    return True


def _binding_list(span: MatchSpan) -> List[LexToken]:
    return [span.bindings[k] for k in sorted(span.bindings)]


def node_events(cfg: Cfg, node: CfgNode, catalog: Catalog,
                site_map: Dict[int, FuncId]) -> List[Event]:
    """Events for one node, cached on the CFG (nodes are walked twice)."""
    cached = cfg.node_events.get(node.id)
    if cached is not None:
        return cached
    events = _extract(cfg.stream, node.span, catalog, site_map)
    cfg.node_events[node.id] = events
    return events


def _extract(stream: TokenStream, span: Tuple[int, int], catalog: Catalog,
             site_map: Dict[int, FuncId]) -> List[Event]:
    if span[0] >= span[1]:
        return []
    begin, end = span

    # One read of the span finds where each anchored pattern could start;
    # a pattern with no candidate start is not tried at all.
    starts = catalog.starts(stream, begin, end)
    candidates: Dict[int, Tuple[int, int, DefectPattern, MatchSpan]] = {}
    for idx, pattern in enumerate(catalog.patterns):
        if pattern.anchor is None:
            found = match_in_range(stream, pattern, begin, end)
        elif idx in starts:
            found = match_in_range(stream, pattern, begin, end, starts[idx])
        else:
            continue
        group = pattern.label.split(".", 1)[0]
        prio = _PRIORITY.get(group, 3)
        for m in found:
            key = m.first_p
            length = m.end_p - m.first_p
            old = candidates.get(key)
            if old is None or (length, -prio) > (old[0], -old[1]):
                candidates[key] = (length, prio, pattern, m)

    events: List[Event] = []
    covered: Set[int] = set()
    for first_p in sorted(candidates):
        _length, _prio, pattern, m = candidates[first_p]
        made = _to_events(stream, pattern, m)
        if made:
            events.extend(made)
            covered.update(range(m.first_p, m.end_p))

    events.extend(_return_allocs(stream, begin, end, covered))

    for site_idx in range(begin, end):
        callee = site_map.get(site_idx)
        if callee is not None and site_idx not in covered:
            call = _call_event(stream, site_idx, end, callee)
            if call is not None:
                events.append(call)

    events.sort(key=lambda e: e.pos)  # type: ignore[attr-defined]
    return events


def _to_events(stream: TokenStream, pattern: DefectPattern,
               m: MatchSpan) -> List[Event]:
    label = pattern.label
    vars_ = [t for t in _binding_list(m) if t.kind is TokenKind.IDENTIFIER]
    if len(vars_) < (2 if label == "transfer.assign" else 1):
        return []  # a user pattern that binds fewer variables than needed
    after = text_at(stream, m.end_p)

    if label == "alloc.realloc":
        dst = vars_[0]
        if not _lhs_ok(stream, dst):
            return []
        out: List[Event] = []
        # The old block is the first call argument, just past the "(".
        src = stream.get(m.end_p)
        if (src is not None and src.kind is TokenKind.IDENTIFIER
                and src.var_id > 0
                and text_at(stream, m.end_p + 1) in (",", ")")):
            out.append(FreeEvent(m.first_p, src.line, "free", src.var_id, src.text))
        out.append(AllocEvent(m.first_p, dst.line, "realloc", dst.var_id, dst.text))
        return out

    if label in ("free.delete", "free.delete_array"):
        var = vars_[0]
        if after != ";":
            return []
        fn = "delete_array" if label.endswith("array") else "delete"
        return [FreeEvent(m.first_p, var.line, fn, var.var_id, var.text)]

    if label == "transfer.assign":
        dst, src = vars_[0], vars_[1]
        if after not in (";", ",", ")"):
            return []
        if not _lhs_ok(stream, dst) or dst.var_id == src.var_id:
            return []
        return [AssignEvent(m.first_p, dst.line, dst.var_id, src.var_id)]

    if label == "transfer.null_assign":
        var = vars_[0]
        if after not in (";", ",", ")") or not _lhs_ok(stream, var):
            return []
        return [NullAssignEvent(m.first_p, var.line, var.var_id)]

    if label == "transfer.return":
        var = vars_[0]
        if after != ";":
            return []
        return [ReturnVarEvent(m.first_p, var.line, var.var_id)]

    if label.startswith("transfer.incr") or label.startswith("transfer.decr"):
        var = vars_[0]
        return [PtrArithEvent(m.first_p, var.line, var.var_id)]

    # Every other allocation and release label, built in or from a user
    # catalog: the label tail picks the pairing family, so "alloc.new" and
    # "alloc.xmalloc" track as a new and a malloc, "free.op_delete_array" as
    # a delete [].  Unrecognized tails default to the malloc/free pair.
    if label.startswith("alloc."):
        dst = vars_[0]
        if not _lhs_ok(stream, dst):
            return []
        fn = _label_family(label[6:], _ALLOC_FAMILIES, "malloc")
        return [AllocEvent(m.first_p, dst.line, fn, dst.var_id, dst.text)]

    if label.startswith("free."):
        var = vars_[0]
        fn = _label_family(label[5:], _FREE_FAMILIES, "free")
        return [FreeEvent(m.first_p, var.line, fn, var.var_id, var.text)]

    return []


_ALLOC_FAMILIES = ("new_array", "new", "calloc", "realloc", "malloc")
_FREE_FAMILIES = ("delete_array", "delete", "free")


def _label_family(tail: str, families: Tuple[str, ...], default: str) -> str:
    for family in families:
        if family in tail:
            return family
    return default


_RETURN_ALLOC_FNS = {"malloc": "malloc", "calloc": "calloc"}


def _return_allocs(stream: TokenStream, begin: int, end: int,
                   covered: Set[int]) -> List[Event]:
    """``return malloc(...)`` and friends allocate into the return slot."""
    events: List[Event] = []
    for i in range(begin, end):
        if stream[i].text != "return" or i in covered:
            continue
        nxt = i + 1
        if nxt >= end:
            continue
        tok = stream[nxt]
        if tok.text in _RETURN_ALLOC_FNS and text_at(stream, nxt + 1) == "(":
            events.append(AllocEvent(i, tok.line, _RETURN_ALLOC_FNS[tok.text],
                                     RETURN_SLOT, "<return>"))
            covered.update(range(i, nxt + 2))
        elif tok.text == "realloc" and text_at(stream, nxt + 1) == "(":
            arg = stream.get(nxt + 2)
            if (arg is not None and arg.kind is TokenKind.IDENTIFIER
                    and arg.var_id > 0
                    and text_at(stream, nxt + 3) in (",", ")")):
                events.append(FreeEvent(i, arg.line, "free", arg.var_id, arg.text))
            events.append(AllocEvent(i, tok.line, "realloc",
                                     RETURN_SLOT, "<return>"))
            covered.update(range(i, nxt + 2))
        elif tok.text == "new":
            fn = "new"
            j = nxt + 1
            while j < end and stream[j].text not in (";", "[", "("):
                j += 1
            if j < end and stream[j].text == "[":
                fn = "new_array"
            events.append(AllocEvent(i, tok.line, fn, RETURN_SLOT, "<return>"))
            covered.update(range(i, nxt + 1))
    return events


def _call_event(stream: TokenStream, site_idx: int, span_end: int,
                callee: FuncId) -> Optional[CallEvent]:
    name_tok = stream[site_idx]
    open_idx = site_idx + 1
    close = stream.partner[open_idx]
    if not 0 <= close < span_end:
        return None

    args: List[Optional[int]] = []
    if close > open_idx + 1:
        args = [_plain_var(stream, begin, end)
                for begin, end in split_top_level(stream, open_idx + 1, close)]

    dst: Optional[int] = None
    prev = stream.get(name_tok.index - 1)
    if prev is not None and prev.text == "=":
        target = stream.get(prev.index - 1)
        if (target is not None and target.kind is TokenKind.IDENTIFIER
                and target.var_id > 0 and _lhs_ok(stream, target)):
            dst = target.var_id
    elif prev is not None and prev.text == "return":
        dst = RETURN_SLOT
    return CallEvent(site_idx, name_tok.line, callee, tuple(args), dst)


def _plain_var(stream: TokenStream, begin: int, end: int) -> Optional[int]:
    """Var id when an argument is a bare variable or ``&var``; else None."""
    toks = [stream[k] for k in range(begin, end)]
    if len(toks) == 2 and toks[0].text == "&":
        toks = toks[1:]
    if len(toks) == 1 and toks[0].kind is TokenKind.IDENTIFIER and toks[0].var_id > 0:
        return toks[0].var_id
    return None
