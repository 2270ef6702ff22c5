"""Control-flow and function-call graphs.

The CFG is recovered per function by structural scanning of the token
stream: if/else, loops, switch and return produce dedicated node kinds,
everything else becomes a Statement node whose span is later pattern
matched for memory events.  Guard feasibility is never evaluated, so
both arms of every branch count as reachable.

Alongside the node/edge graph the builder emits a structure plan (nested
sequence/branch/loop items) that the path-sensitive interpreter walks;
both views come from the same recursive descent, so they cannot drift.

``goto`` or a label in a body degrades that function to a linear chain
of Statement nodes with a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .defects import Defect, DefectKind
from .scopes import ScopeNode, ScopeKind, resolve
from .tokens import Diagnostic, LexToken, TokenKind, TokenStream, TYPE_KEYWORDS


class CfgNodeKind(Enum):
    ENTRY = "Entry"
    EXIT = "Exit"
    STATEMENT = "Statement"
    BRANCH = "Branch"
    JOIN = "Join"
    LOOP_HEAD = "LoopHead"
    RETURN = "Return"


@dataclass
class CfgNode:
    id: int
    kind: CfgNodeKind
    span: Optional[Tuple[int, int]]  # half-open token index range
    line: int
    succ: List[int] = field(default_factory=list)
    pred: List[int] = field(default_factory=list)
    guard_text: str = ""


@dataclass(frozen=True, order=True)
class FuncId:
    file_name: str
    class_name: str
    func_name: str
    arity: int

    def render(self) -> str:
        return f"{self.file_name}::{self.class_name}::{self.func_name}/{self.arity}"


# --- structure plan items (walked by the interpreter) ---

@dataclass
class SeqStmt:
    node: int


@dataclass
class ReturnStmt:
    node: int


@dataclass
class BreakStmt:
    node: int


@dataclass
class ContinueStmt:
    node: int


@dataclass
class IfStruct:
    branch: int
    arms: List[Tuple[str, list]]
    join: int


@dataclass
class LoopStruct:
    head: int
    body: list
    style: str  # "while" | "for" | "dowhile"
    trailer: list = field(default_factory=list)  # for-increment items


@dataclass
class SwitchStruct:
    branch: int
    arms: List[Tuple[str, list]]
    join: int
    has_default: bool


@dataclass
class Cfg:
    func: FuncId
    func_scope: ScopeNode
    stream: TokenStream
    nodes: List[CfgNode]
    entry: int
    exit: int
    structure: list
    degraded: bool = False
    # Per-node memory event cache, filled lazily by the event extractor.
    node_events: Dict[int, list] = field(default_factory=dict)

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[node_id]


def func_id_of(scope: ScopeNode, stream: TokenStream) -> FuncId:
    return FuncId(stream.file, scope.owner_class, scope.name, len(scope.params))


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class _CfgBuilder:
    def __init__(self, stream: TokenStream, begin: int, end: int) -> None:
        self.stream = stream
        self.begin = begin
        self.end = end
        self.nodes: List[CfgNode] = []

    def text(self, i: int) -> str:
        return self.stream[i].text if i < self.end else ""

    def new_node(self, kind: CfgNodeKind, span: Optional[Tuple[int, int]],
                 preds: List[int]) -> int:
        if span is not None and span[0] < span[1]:
            line = self.stream[span[0]].line
        elif self.nodes:
            line = self.nodes[-1].line
        else:
            line = self.stream[self.begin].line if self.begin < len(self.stream) else 1
        node = CfgNode(len(self.nodes), kind, span, line)
        self.nodes.append(node)
        self.connect(preds, node.id)
        return node.id

    def connect(self, preds: List[int], target: int) -> None:
        for p in preds:
            self.nodes[p].succ.append(target)
            self.nodes[target].pred.append(p)

    def match_forward(self, open_idx: int) -> int:
        pairs = {"(": ")", "[": "]", "{": "}"}
        open_text = self.stream[open_idx].text
        close_text = pairs[open_text]
        depth = 0
        for i in range(open_idx, self.end):
            t = self.stream[i].text
            if t == open_text:
                depth += 1
            elif t == close_text:
                depth -= 1
                if depth == 0:
                    return i
        return self.end - 1

    def statement_end(self, i: int) -> int:
        """Index one past the ``;`` terminating the statement at *i*."""
        depth = 0
        j = i
        while j < self.end:
            t = self.stream[j].text
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif t == "{" and depth == 0:
                j = self.match_forward(j)
            elif t == ";" and depth == 0:
                return j + 1
            j += 1
        return self.end

    def guard_text(self, span: Tuple[int, int]) -> str:
        return " ".join(self.stream[k].text for k in range(span[0], span[1]))

    # -- statement parsing ---------------------------------------------------

    def parse_region(self, i: int, end: int, frontier: List[int]):
        """Parse statements in [i, end); returns (items, frontier, breaks, continues)."""
        items: list = []
        breaks: List[int] = []
        continues: List[int] = []
        while i < end:
            tok = self.stream[i]
            if tok.text == ";":
                i += 1
                continue
            sub, frontier, brk, cont, i = self.parse_one(i, end, frontier)
            items.extend(sub)
            breaks.extend(brk)
            continues.extend(cont)
        return items, frontier, breaks, continues

    def parse_one(self, i: int, end: int, frontier: List[int]):
        """Parse a single statement (possibly compound) starting at *i*.

        Returns (items, frontier, breaks, continues, next_index).
        """
        stream = self.stream
        text = stream[i].text

        if text == "{":
            close = self.match_forward(i)
            items, frontier, brk, cont = self.parse_region(i + 1, close, frontier)
            return items, frontier, brk, cont, close + 1

        if text == ";":
            return [], frontier, [], [], i + 1

        if text == "if":
            return self._parse_if(i, end, frontier)
        if text in ("while",):
            return self._parse_while(i, end, frontier)
        if text == "for":
            return self._parse_for(i, end, frontier)
        if text == "do":
            return self._parse_do(i, end, frontier)
        if text == "switch":
            return self._parse_switch(i, end, frontier)
        if text == "try":
            # The try body runs unconditionally; catch arms conservatively
            # fork like an if whose guard never constrains anything.
            return self._parse_try(i, end, frontier)
        if text == "return":
            stmt_end = self.statement_end(i)
            node = self.new_node(CfgNodeKind.RETURN, (i, stmt_end), frontier)
            return [ReturnStmt(node)], [], [], [], stmt_end

        if text == "break":
            stmt_end = self.statement_end(i)
            node = self.new_node(CfgNodeKind.STATEMENT, (i, stmt_end), frontier)
            return [BreakStmt(node)], [], [node], [], stmt_end
        if text == "continue":
            stmt_end = self.statement_end(i)
            node = self.new_node(CfgNodeKind.STATEMENT, (i, stmt_end), frontier)
            return [ContinueStmt(node)], [], [], [node], stmt_end

        stmt_end = self.statement_end(i)
        node = self.new_node(CfgNodeKind.STATEMENT, (i, stmt_end), frontier)
        return [SeqStmt(node)], [node], [], [], stmt_end

    def _guard_span(self, i: int) -> Tuple[Tuple[int, int], int]:
        """Span inside the parens of a control clause at *i*; returns (span, close).

        A clause with no ``(`` before the end of its statement (malformed
        input such as ``while ;``) gets an empty guard that closes at *i*.
        """
        open_idx = i + 1
        while (open_idx < self.end
               and self.stream[open_idx].text not in ("(", ";", "{", "}")):
            open_idx += 1
        if open_idx >= self.end or self.stream[open_idx].text != "(":
            return (i + 1, i + 1), i
        close = self.match_forward(open_idx)
        return (open_idx + 1, close), close

    def _parse_if(self, i: int, end: int, frontier: List[int]):
        span, close = self._guard_span(i)
        branch = self.new_node(CfgNodeKind.BRANCH, span, frontier)
        self.nodes[branch].guard_text = self.guard_text(span)

        then_items, then_fr, brk, cont, after = self.parse_one(close + 1, end, [branch])
        arms: List[Tuple[str, list]] = [("then", then_items)]
        else_fr: List[int] = [branch]
        else_items: list = []
        if after < end and self.stream[after].text == "else":
            else_items, else_fr, brk2, cont2, after = self.parse_one(after + 1, end, [branch])
            brk += brk2
            cont += cont2
        arms.append(("else", else_items))
        join = self.new_node(CfgNodeKind.JOIN, None, then_fr + else_fr)
        return [IfStruct(branch, arms, join)], [join], brk, cont, after

    def _parse_while(self, i: int, end: int, frontier: List[int]):
        span, close = self._guard_span(i)
        head = self.new_node(CfgNodeKind.LOOP_HEAD, span, frontier)
        self.nodes[head].guard_text = self.guard_text(span)
        body_items, body_fr, brk, cont, after = self.parse_one(close + 1, end, [head])
        self.connect(body_fr + cont, head)  # back edges
        return [LoopStruct(head, body_items, "while")], [head] + brk, [], [], after

    def _parse_for(self, i: int, end: int, frontier: List[int]):
        clause, close = self._guard_span(i)
        start = clause[0]
        semis = [k for k in range(start, close)
                 if self.stream[k].text == ";" and self._depth0(start, k)]
        items: list = []
        if len(semis) >= 2:
            init_span = (start, semis[0] + 1)
            cond_span = (semis[0] + 1, semis[1])
            incr_span = (semis[1] + 1, close)
        else:  # malformed; treat the whole clause as the guard
            init_span = (start, start)
            cond_span = clause
            incr_span = (close, close)
        if init_span[0] < init_span[1]:
            node = self.new_node(CfgNodeKind.STATEMENT, init_span, frontier)
            items.append(SeqStmt(node))
            frontier = [node]
        head = self.new_node(CfgNodeKind.LOOP_HEAD, cond_span, frontier)
        self.nodes[head].guard_text = self.guard_text(cond_span)
        body_items, body_fr, brk, cont, after = self.parse_one(close + 1, end, [head])
        trailer: list = []
        incr_preds = body_fr + cont
        if incr_span[0] < incr_span[1]:
            incr_node = self.new_node(CfgNodeKind.STATEMENT, incr_span, incr_preds)
            trailer.append(SeqStmt(incr_node))
            self.connect([incr_node], head)
        else:
            self.connect(incr_preds, head)
        loop = LoopStruct(head, body_items, "for", trailer)
        items.append(loop)
        exits = brk + ([head] if cond_span[0] < cond_span[1] else [])
        return items, exits, [], [], after

    def _parse_do(self, i: int, end: int, frontier: List[int]):
        body_items, body_fr, brk, cont, after = self.parse_one(i + 1, end, frontier)
        # after points at "while"
        head_span = (i + 1, i + 1)
        close = after
        if after < end and self.stream[after].text == "while":
            head_span, close = self._guard_span(after)
        head = self.new_node(CfgNodeKind.LOOP_HEAD, head_span, body_fr + cont)
        self.nodes[head].guard_text = self.guard_text(head_span)
        first = _first_node(body_items)
        if first is not None:
            self.connect([head], first)  # back edge
        stmt_end = self.statement_end(close)
        return ([LoopStruct(head, body_items, "dowhile")],
                [head] + brk, [], [], stmt_end)

    def _parse_switch(self, i: int, end: int, frontier: List[int]):
        span, close = self._guard_span(i)
        branch = self.new_node(CfgNodeKind.BRANCH, span, frontier)
        self.nodes[branch].guard_text = self.guard_text(span)
        if close + 1 >= end or self.stream[close + 1].text != "{":
            # braceless switch: treat the lone statement as a "then" arm
            items, fr, brk, cont, after = self.parse_one(close + 1, end, [branch])
            join = self.new_node(CfgNodeKind.JOIN, None, fr + brk + [branch])
            return ([SwitchStruct(branch, [("case:0", items)], join, False)],
                    [join], [], cont, after)
        body_open = close + 1
        body_close = self.match_forward(body_open)

        labels: List[Tuple[int, str, int]] = []  # (label start, tag, body start)
        depth = 0
        k = body_open + 1
        while k < body_close:
            t = self.stream[k].text
            if t in ("{", "(", "["):
                depth += 1
            elif t in ("}", ")", "]"):
                depth -= 1
            elif depth == 0 and t in ("case", "default"):
                colon = k + 1
                while colon < body_close and self.stream[colon].text != ":":
                    colon += 1
                if t == "case":
                    expr = " ".join(self.stream[m].text for m in range(k + 1, colon))
                    tag = f"case:{expr}"
                else:
                    tag = "default"
                labels.append((k, tag, colon + 1))
                k = colon
            k += 1

        arms: List[Tuple[str, list]] = []
        breaks: List[int] = []
        continues: List[int] = []
        fall_fr: List[int] = []
        for idx, (label_start, tag, body_start) in enumerate(labels):
            seg_end = labels[idx + 1][0] if idx + 1 < len(labels) else body_close
            entry_preds = [branch] + fall_fr
            items, fr, brk, cont, _ = self._parse_segment(body_start, seg_end, entry_preds)
            arms.append((tag, items))
            breaks.extend(brk)
            continues.extend(cont)
            fall_fr = fr
        has_default = any(tag == "default" for _start, tag, _body in labels)
        join_preds = breaks + fall_fr + ([] if has_default else [branch])
        join = self.new_node(CfgNodeKind.JOIN, None, join_preds)
        return ([SwitchStruct(branch, arms, join, has_default)],
                [join], [], continues, body_close + 1)

    def _parse_segment(self, i: int, end: int, frontier: List[int]):
        items, frontier, brk, cont = self.parse_region(i, end, frontier)
        return items, frontier, brk, cont, end

    def _parse_try(self, i: int, end: int, frontier: List[int]):
        body_items, frontier, brk, cont, after = self.parse_one(i + 1, end, frontier)
        items = list(body_items)
        while after < end and self.stream[after].text == "catch":
            span, close = self._guard_span(after)
            branch = self.new_node(CfgNodeKind.BRANCH, span, frontier)
            self.nodes[branch].guard_text = "catch " + self.guard_text(span)
            catch_items, catch_fr, brk2, cont2, after = self.parse_one(close + 1, end, [branch])
            join = self.new_node(CfgNodeKind.JOIN, None, catch_fr + [branch])
            items.append(IfStruct(branch, [("then", catch_items), ("else", [])], join))
            frontier = [join]
            brk += brk2
            cont += cont2
        return items, frontier, brk, cont, after

    def _depth0(self, begin: int, at: int) -> bool:
        depth = 0
        for k in range(begin, at):
            t = self.stream[k].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
        return depth == 0


def _first_node(items: list) -> Optional[int]:
    for item in items:
        if isinstance(item, (SeqStmt, ReturnStmt, BreakStmt, ContinueStmt)):
            return item.node
        if isinstance(item, IfStruct):
            return item.branch
        if isinstance(item, LoopStruct):
            if item.style == "dowhile":
                sub = _first_node(item.body)
                return sub if sub is not None else item.head
            return item.head
        if isinstance(item, SwitchStruct):
            return item.branch
    return None


def build_cfg(func_scope: ScopeNode, stream: TokenStream) -> Cfg:
    """Build the CFG (graph plus structure plan) for one function body."""
    begin = func_scope.token_begin + 1
    end = max(begin, func_scope.token_end - 1)
    builder = _CfgBuilder(stream, begin, end)
    entry = builder.new_node(CfgNodeKind.ENTRY, None, [])
    builder.nodes[entry].line = stream[func_scope.token_begin].line

    degraded = any(stream[k].text == "goto"
                   for k in range(begin, min(end, len(stream))))
    if degraded:
        stream.diagnostics.append(Diagnostic(
            "MalformedControlFlow", "goto present; control flow degraded to a chain",
            stream.file, builder.nodes[entry].line, 1))
        items, frontier = _linear_chain(builder, begin, end, [entry])
        breaks: List[int] = []
        continues: List[int] = []
    else:
        items, frontier, breaks, continues = builder.parse_region(begin, end, [entry])

    exit_id = builder.new_node(CfgNodeKind.EXIT, None, frontier + breaks + continues)
    builder.nodes[exit_id].line = (stream[func_scope.token_end - 1].line
                                   if func_scope.token_end - 1 < len(stream)
                                   else builder.nodes[entry].line)
    for node in builder.nodes:
        if node.kind is CfgNodeKind.RETURN and exit_id not in node.succ:
            builder.connect([node.id], exit_id)

    cfg = Cfg(
        func=func_id_of(func_scope, stream),
        func_scope=func_scope,
        stream=stream,
        nodes=builder.nodes,
        entry=entry,
        exit=exit_id,
        structure=items,
        degraded=degraded,
    )
    return cfg


def _linear_chain(builder: _CfgBuilder, begin: int, end: int,
                  frontier: List[int]):
    """Degraded mode: every statement in order, control keywords inert."""
    items: list = []
    i = begin
    while i < end:
        text = builder.stream[i].text
        if text in (";", "{", "}", "else", "do", "try"):
            i += 1
            continue
        if text in ("if", "while", "for", "switch", "catch"):
            _span, close = builder._guard_span(i)
            node = builder.new_node(CfgNodeKind.STATEMENT, (i, close + 1), frontier)
            items.append(SeqStmt(node))
            frontier = [node]
            i = close + 1
            continue
        stmt_end = builder.statement_end(i)
        node = builder.new_node(CfgNodeKind.STATEMENT, (i, stmt_end), frontier)
        items.append(SeqStmt(node))
        frontier = [node]
        i = stmt_end
    return items, frontier


def dump_cfg(cfg: Cfg) -> str:
    lines = []
    for node in cfg.nodes:
        succ = ",".join(str(s) for s in node.succ) or "-"
        lines.append(f"{node.id} {node.kind.value} {node.line} -> {succ}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Function-call graph
# ---------------------------------------------------------------------------

@dataclass
class FcgEdge:
    caller: FuncId
    callee: FuncId
    site_index: int
    site_line: int


@dataclass
class Fcg:
    edges: List[FcgEdge] = field(default_factory=list)
    defined: Dict[FuncId, ScopeNode] = field(default_factory=dict)
    warnings: List[Defect] = field(default_factory=list)
    # caller -> {site token index: callee} in token order, filled by
    # add_edge so that lookups never scan ``edges``.
    sites: Dict[FuncId, Dict[int, FuncId]] = field(default_factory=dict)

    def add_edge(self, edge: FcgEdge) -> None:
        self.edges.append(edge)
        self.sites.setdefault(edge.caller, {})[edge.site_index] = edge.callee

    def call_sites(self, caller: FuncId) -> Dict[int, FuncId]:
        return dict(self.sites.get(caller, {}))

    def callees(self, caller: FuncId) -> List[FuncId]:
        return list(self.sites.get(caller, {}).values())

    def callers(self, callee: FuncId) -> List[FuncId]:
        return [e.caller for e in self.edges if e.callee == callee]


_NOT_CALL_PREV = frozenset(["*", "&", "::"])


def build_fcg(units: List[Tuple[ScopeNode, TokenStream]]) -> Fcg:
    """Link call sites in every defined function to their targets.

    Resolution is by name and comma-counted arity; a method call through
    ``obj.`` or ``obj->`` narrows candidates to the receiver's class.
    Same-name same-arity candidates from different files resolve to the
    caller's own file with an AmbiguousCallWarning.
    """
    fcg = Fcg()
    by_key: Dict[Tuple[str, str, int], List[FuncId]] = {}
    declared: Dict[Tuple[str, str, int], FuncId] = {}

    for root, stream in units:
        for scope in root.function_scopes:
            fid = func_id_of(scope, stream)
            fcg.defined[fid] = scope
            by_key.setdefault((scope.owner_class, scope.name, len(scope.params)),
                              []).append(fid)
        for decl in root.declared_funcs:
            key = (decl.class_name, decl.name, decl.arity)
            declared.setdefault(key, FuncId(decl.file, decl.class_name,
                                            decl.name, decl.arity))

    for root, stream in units:
        scope_by_id = {s.scope_id: s for s in _walk_scopes(root)}
        for scope in root.function_scopes:
            caller = func_id_of(scope, stream)
            _scan_calls(fcg, by_key, declared, scope, stream, caller, scope_by_id)
    return fcg


def _walk_scopes(node: ScopeNode):
    yield node
    for child in node.children:
        yield from _walk_scopes(child)


def _scan_calls(fcg: Fcg, by_key, declared, scope: ScopeNode,
                stream: TokenStream, caller: FuncId, scope_by_id) -> None:
    begin = scope.token_begin + 1
    end = scope.token_end - 1
    for i in range(begin, min(end, len(stream))):
        tok = stream[i]
        if tok.kind is not TokenKind.IDENTIFIER:
            continue
        nxt = stream.get(i + 1)
        if nxt is None or nxt.text != "(":
            continue
        prev = stream.get(i - 1)
        receiver_class = ""
        if prev is not None and prev.text == "::":
            qual = stream.get(i - 2)
            if qual is not None and qual.text in stream.known_types:
                receiver_class = qual.text
            else:
                continue
        elif prev is not None and prev.text == "new" and tok.text in stream.known_types:
            receiver_class = tok.text  # constructor call
        elif prev is not None and (prev.text in TYPE_KEYWORDS
                                   or prev.text in stream.known_types
                                   or prev.text in _NOT_CALL_PREV):
            continue  # declaration, not a direct call
        elif prev is not None and prev.text in (".", "->"):
            recv = stream.get(i - 2)
            if recv is not None and recv.text == "this":
                receiver_class = scope.owner_class
            elif recv is not None and recv.kind is TokenKind.IDENTIFIER:
                entry = resolve(recv.text, scope_by_id.get(recv.scope_id, scope))
                if entry is not None:
                    for word in entry.type_text.split():
                        if word in stream.known_types:
                            receiver_class = word
                            break
                if not receiver_class:
                    continue  # unknown receiver; not resolvable
            else:
                continue
        close = _match_paren(stream, i + 1, end)
        if close is None:
            continue
        arity = _arity_of(stream, i + 1, close)
        callee = _resolve_call(fcg, by_key, declared, tok, receiver_class,
                               scope.owner_class, arity, caller)
        fcg.add_edge(FcgEdge(caller, callee, i, tok.line))


def _match_paren(stream: TokenStream, open_idx: int, end: int) -> Optional[int]:
    depth = 0
    for i in range(open_idx, min(end + 1, len(stream))):
        t = stream[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def _arity_of(stream: TokenStream, open_idx: int, close_idx: int) -> int:
    if close_idx == open_idx + 1:
        return 0
    count = 1
    depth = 0
    for i in range(open_idx + 1, close_idx):
        t = stream[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            count += 1
    return count


def _resolve_call(fcg: Fcg, by_key, declared, tok: LexToken, receiver_class: str,
                  caller_class: str, arity: int, caller: FuncId) -> FuncId:
    classes = [receiver_class] if receiver_class else ([caller_class, ""] if caller_class else [""])
    for cls in classes:
        pool = by_key.get((cls, tok.text, arity), [])
        if len(pool) == 1:
            return pool[0]
        if len(pool) > 1:
            same_file = [f for f in pool if f.file_name == tok.file]
            chosen = sorted(same_file or pool)[0]
            fcg.warnings.append(Defect(
                kind=DefectKind.AMBIGUOUS_CALL_WARNING,
                file=tok.file, line=tok.line, func=caller.render(),
                message=(f"call to {tok.text}/{arity} matches "
                         f"{len(pool)} definitions; using {chosen.render()}"),
            ))
            return chosen
        if (cls, tok.text, arity) in declared:
            return declared[(cls, tok.text, arity)]
    return FuncId("", receiver_class, tok.text, arity)


def defined_successors(fcg: Fcg) -> Dict[FuncId, List[FuncId]]:
    """Callees of each defined function, in edge order, among defined ones."""
    succ: Dict[FuncId, List[FuncId]] = {f: [] for f in fcg.defined}
    for edge in fcg.edges:
        if edge.caller in succ and edge.callee in succ:
            succ[edge.caller].append(edge.callee)
    return succ


def find_rings(fcg: Fcg) -> List[List[FuncId]]:
    """Strongly connected components that form call rings.

    A ring is an SCC with at least two members, or a single function that
    calls itself.  Members are returned sorted, rings ordered by their
    first member, so output is deterministic.
    """
    graph = defined_successors(fcg)
    self_loop = {f for f, callees in graph.items() if f in callees}

    index: Dict[FuncId, int] = {}
    low: Dict[FuncId, int] = {}
    on_stack: Set[FuncId] = set()
    stack: List[FuncId] = []
    sccs: List[List[FuncId]] = []
    counter = [0]

    def strongconnect(start: FuncId) -> None:
        work = [(start, iter(graph[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for fid in sorted(graph):
        if fid not in index:
            strongconnect(fid)

    rings = [sorted(scc) for scc in sccs
             if len(scc) >= 2 or (len(scc) == 1 and scc[0] in self_loop)]
    return sorted(rings, key=lambda ring: ring[0])


def dump_fcg(fcg: Fcg) -> str:
    lines = []
    for edge in sorted(fcg.edges, key=lambda e: (e.caller, e.site_line, e.callee)):
        lines.append(f"{edge.caller.render()} -> {edge.callee.render()}"
                     f" @{edge.caller.file_name}:{edge.site_line}")
    return "\n".join(lines)
