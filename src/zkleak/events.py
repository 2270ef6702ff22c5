"""Memory events recovered from CFG node spans.

Each CFG node span is pattern matched against the release/allocation/
transfer catalog; hits become events, cached per node, that the
interpreter feeds to ownership machines and the class rules read back.
An event's ``kind`` names what it does, and the interpreter and the
class rules dispatch on it.
Adjacency guards keep the fuzzy patterns from firing on lookalikes
(``q = p + 1`` is not an ownership copy, ``free(a[i])`` does not
release ``a``).

``RETURN_SLOT`` is a pseudo variable id owning blocks allocated directly
in a return expression.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .defects import Record
from .graphs import Cfg, CfgNode, FuncId
from .patterns import Catalog, DefectPattern, MatchSpan, match_in_range
from .scopes import split_top_level, text_at
from .tokens import TokenKind, TokenStream

RETURN_SLOT = -1


class Event(Record):
    """A memory event at token *pos*, on *line*, acting on variable *var*.

    ``alloc`` gives *var* a new block from *fn* (malloc, calloc, realloc,
    new or new_array), ``free`` releases it with *fn* (free, delete or
    delete_array); *name* is the variable's text.  ``assign`` is ``var =
    src``; ``null``, ``arith`` and ``return`` set *var* to null, advance it
    by arithmetic or return it.  ``call`` stores the result of *callee* in
    *var*, or nowhere for None; *args* holds the var id of each argument
    that is a bare variable, else None.
    """

    __slots__ = ("kind", "pos", "line", "var", "fn", "name", "src", "callee",
                 "args")

    def __init__(self, kind: str, pos: int, line: int, var: Optional[int],
                 fn: str = "", name: str = "", src: int = 0,
                 callee: Optional[FuncId] = None,
                 args: Tuple[Optional[int], ...] = ()) -> None:
        self.kind, self.pos, self.line = kind, pos, line
        self.var, self.fn, self.name = var, fn, name
        self.src, self.callee, self.args = src, callee, args


_PRIORITY = {"alloc": 0, "free": 1, "transfer": 2}


def _lhs_ok(stream: TokenStream, i: int) -> bool:
    """Assignment target guard for the token at *i*: plain variable,
    declarator, or ``this->``.

    A ``*`` right before the variable is fine when it belongs to a
    declarator (``char *a = ...``) but disqualifies a store through the
    pointer (``*q = ...``); the token in front of the star run tells the
    two apart.
    """
    prev = text_at(stream, i - 1)
    if prev == ".":
        return False
    if prev == "->":
        return text_at(stream, i - 2) == "this"
    if prev == "*":
        j = i - 2
        while text_at(stream, j) in ("*", "const"):
            j -= 1
        before = text_at(stream, j)
        if j < 0 or before == "return":
            return False
        if before == ",":
            return True
        return stream.kind[j] in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
    return True


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

    events.sort(key=lambda e: e.pos)
    return events


def _to_events(stream: TokenStream, pattern: DefectPattern,
               m: MatchSpan) -> List[Event]:
    label = pattern.label
    texts, kinds, lines, var_id = stream.text, stream.kind, stream.line, stream.var_id
    vars_ = [m.bindings[k] for k in sorted(m.bindings)
             if kinds[m.bindings[k]] is TokenKind.IDENTIFIER]
    if len(vars_) < (2 if label == "transfer.assign" else 1):
        return []  # a user pattern that binds fewer variables than needed
    var = vars_[0]
    after = text_at(stream, m.end_p)

    if label == "alloc.realloc":
        if not _lhs_ok(stream, var):
            return []
        out: List[Event] = []
        # The old block is the first call argument, just past the "(".
        src = m.end_p
        if (src < len(texts) and kinds[src] is TokenKind.IDENTIFIER
                and var_id[src] > 0
                and text_at(stream, src + 1) in (",", ")")):
            out.append(Event("free", m.first_p, lines[src], var_id[src], "free", texts[src]))
        out.append(Event("alloc", m.first_p, lines[var], var_id[var], "realloc", texts[var]))
        return out

    if label in ("free.delete", "free.delete_array"):
        if after != ";":
            return []
        fn = "delete_array" if label.endswith("array") else "delete"
        return [Event("free", m.first_p, lines[var], var_id[var], fn, texts[var])]

    if label == "transfer.assign":
        src = vars_[1]
        if after not in (";", ",", ")"):
            return []
        if not _lhs_ok(stream, var) or var_id[var] == var_id[src]:
            return []
        return [Event("assign", m.first_p, lines[var], var_id[var], src=var_id[src])]

    if label == "transfer.null_assign":
        if after not in (";", ",", ")") or not _lhs_ok(stream, var):
            return []
        return [Event("null", m.first_p, lines[var], var_id[var])]

    if label == "transfer.return":
        if after != ";":
            return []
        return [Event("return", m.first_p, lines[var], var_id[var])]

    if label.startswith("transfer.incr") or label.startswith("transfer.decr"):
        return [Event("arith", m.first_p, lines[var], var_id[var])]

    # Every other allocation and release label, built in or from a user
    # catalog: the label tail picks the pairing family, so "alloc.new" and
    # "alloc.xmalloc" track as a new and a malloc, "free.op_delete_array" as
    # a delete [].  Unrecognized tails default to the malloc/free pair.
    if label.startswith("alloc."):
        if not _lhs_ok(stream, var):
            return []
        fn = _label_family(label[6:], _ALLOC_FAMILIES, "malloc")
        return [Event("alloc", m.first_p, lines[var], var_id[var], fn, texts[var])]

    if label.startswith("free."):
        fn = _label_family(label[5:], _FREE_FAMILIES, "free")
        return [Event("free", m.first_p, lines[var], var_id[var], fn, texts[var])]

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
    texts, kinds, lines, var_id = stream.text, stream.kind, stream.line, stream.var_id
    events: List[Event] = []
    for i in range(begin, end):
        if texts[i] != "return" or i in covered:
            continue
        nxt = i + 1
        if nxt >= end:
            continue
        name = texts[nxt]
        if name in _RETURN_ALLOC_FNS and text_at(stream, nxt + 1) == "(":
            events.append(Event("alloc", i, lines[nxt], RETURN_SLOT,
                                _RETURN_ALLOC_FNS[name], "<return>"))
            covered.update(range(i, nxt + 2))
        elif name == "realloc" and text_at(stream, nxt + 1) == "(":
            arg = nxt + 2
            if (arg < len(texts) and kinds[arg] is TokenKind.IDENTIFIER
                    and var_id[arg] > 0
                    and text_at(stream, nxt + 3) in (",", ")")):
                events.append(Event("free", i, lines[arg], var_id[arg], "free", texts[arg]))
            events.append(Event("alloc", i, lines[nxt], RETURN_SLOT, "realloc",
                                "<return>"))
            covered.update(range(i, nxt + 2))
        elif name == "new":
            fn = "new"
            j = nxt + 1
            while j < end and texts[j] not in (";", "[", "("):
                j += 1
            if j < end and texts[j] == "[":
                fn = "new_array"
            events.append(Event("alloc", i, lines[nxt], RETURN_SLOT, fn, "<return>"))
            covered.update(range(i, nxt + 1))
    return events


def _call_event(stream: TokenStream, site_idx: int, span_end: int,
                callee: FuncId) -> Optional[Event]:
    open_idx = site_idx + 1
    close = stream.partner[open_idx]
    if not 0 <= close < span_end:
        return None

    args: List[Optional[int]] = []
    if close > open_idx + 1:
        args = [_plain_var(stream, begin, end)
                for begin, end in split_top_level(stream, open_idx + 1, close)]

    dst: Optional[int] = None
    prev = text_at(stream, site_idx - 1)
    if prev == "=":
        target = site_idx - 2
        if (target >= 0 and stream.kind[target] is TokenKind.IDENTIFIER
                and stream.var_id[target] > 0 and _lhs_ok(stream, target)):
            dst = stream.var_id[target]
    elif prev == "return":
        dst = RETURN_SLOT
    return Event("call", site_idx, stream.line[site_idx], dst, callee=callee,
                 args=tuple(args))


def _plain_var(stream: TokenStream, begin: int, end: int) -> Optional[int]:
    """Var id when an argument is a bare variable or ``&var``; else None."""
    if end - begin == 2 and stream.text[begin] == "&":
        begin += 1
    if (end - begin == 1 and stream.kind[begin] is TokenKind.IDENTIFIER
            and stream.var_id[begin] > 0):
        return stream.var_id[begin]
    return None
