"""Control-flow and function-call graphs.

The CFG of a function is its structure plan, recovered per function by
structural scanning of the token stream: a sequence of items in which
if/else, switch and try/catch become branches with one item list per
arm, loops carry their body (and a ``for`` increment as a trailer), and
every other statement is a leaf.  Each item names the nodes it runs: a
node is a token span that is later pattern matched for memory events,
and a branch or loop head also keeps its guard text.  The path-sensitive
interpreter walks the plan.  Guard feasibility is never evaluated, so
both arms of every branch count as reachable.

``goto`` in a body degrades that function to a linear chain of
statement nodes with a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .defects import Defect, DefectKind
from .scopes import ScopeNode, split_top_level, text_at
from .tokens import Diagnostic, TokenKind, TokenStream, TYPE_KEYWORDS


@dataclass
class CfgNode:
    id: int
    span: Tuple[int, int]  # half-open token index range
    line: int
    guard_text: str = ""


@dataclass(frozen=True, order=True)
class FuncId:
    file_name: str
    class_name: str
    func_name: str
    arity: int

    def render(self) -> str:
        return f"{self.file_name}::{self.class_name}::{self.func_name}/{self.arity}"

    def qualified(self) -> str:
        """``Class::name``, or the bare name outside a class."""
        return (f"{self.class_name}::{self.func_name}" if self.class_name
                else self.func_name)


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
    has_default: bool


@dataclass
class Cfg:
    func: FuncId
    func_scope: ScopeNode
    stream: TokenStream
    nodes: List[CfgNode]
    entry_line: int
    exit_line: int
    structure: list
    # Per-node memory event cache, filled lazily by the event extractor.
    node_events: Dict[int, list] = field(default_factory=dict)

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[node_id]


def func_id_of(scope: ScopeNode, stream: TokenStream) -> FuncId:
    return FuncId(stream.file, scope.owner_class, scope.name, len(scope.params))


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

_LEAF_KINDS = {"return": ReturnStmt, "break": BreakStmt, "continue": ContinueStmt}

# Deepest statement nesting the builder follows; a deeper body becomes a
# linear chain.  The builder spends two frames per level (parse_one and
# the _parse_* method or parse_region it calls) and the interpreter three
# per plan level, so both walks stay far inside Python's default
# recursion limit of 1,000 frames.
MAX_NESTING = 250


class _Degraded(Exception):
    """Why a body is read as a linear chain instead of a plan."""


class _CfgBuilder:
    def __init__(self, stream: TokenStream, end: int, entry_line: int) -> None:
        self.stream = stream
        self.text = stream.text
        self.end = end
        self.entry_line = entry_line
        self.nodes: List[CfgNode] = []
        self.depth = 0  # parse_one calls open on the Python stack

    def new_node(self, span: Tuple[int, int]) -> int:
        """A node for *span*; an empty span takes the previous node's line,
        or the line of the function's ``{``."""
        if span[0] < span[1]:
            line = self.stream.line[span[0]]
        elif self.nodes:
            line = self.nodes[-1].line
        else:
            line = self.entry_line
        self.nodes.append(CfgNode(len(self.nodes), span, line))
        return len(self.nodes) - 1

    def new_head(self, span: Tuple[int, int], prefix: str = "") -> int:
        """A branch or loop-head node that keeps its guard text."""
        node = self.new_node(span)
        self.nodes[node].guard_text = prefix + " ".join(self.text[span[0]:span[1]])
        return node

    def match_forward(self, open_idx: int) -> int:
        """The bracket closing *open_idx*, or the body's last token when
        it is unmatched or closes past the body."""
        close = self.stream.partner[open_idx]
        return close if 0 <= close < self.end else self.end - 1

    def statement_end(self, i: int) -> int:
        """Index one past the ``;`` terminating the statement at *i*, or
        the index of a ``}`` past *i* that closes the enclosing block of a
        statement missing its ``;``."""
        text = self.text
        depth = 0
        j = i
        while j < self.end:
            t = text[j]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif t == "{" and depth == 0:
                j = self.match_forward(j)
            elif t == ";" and depth == 0:
                return j + 1
            elif t == "}" and depth == 0 and j > i:
                return j
            j += 1
        return self.end

    # -- statement parsing ---------------------------------------------------

    def parse_region(self, i: int, end: int) -> list:
        """The plan items of the statements in [i, end)."""
        items: list = []
        while i < end:
            if self.text[i] == ";":
                i += 1
                continue
            sub, i = self.parse_one(i)
            items.extend(sub)
        return items

    def parse_one(self, i: int):
        """Parse a single statement (possibly compound) starting at *i*.

        Returns (items, next_index).
        """
        if self.depth == MAX_NESTING:
            raise _Degraded(f"statements nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            text = self.text[i]

            if text == "{":
                close = self.match_forward(i)
                return self.parse_region(i + 1, close), close + 1

            if text == ";":
                return [], i + 1

            if text == "if":
                return self._parse_if(i)
            if text == "while":
                return self._parse_while(i)
            if text == "for":
                return self._parse_for(i)
            if text == "do":
                return self._parse_do(i)
            if text == "switch":
                return self._parse_switch(i)
            if text == "try":
                # The try body runs unconditionally; catch arms conservatively
                # fork like an if whose guard never constrains anything.
                return self._parse_try(i)

            stmt_end = self.statement_end(i)
            node = self.new_node((i, stmt_end))
            return [_LEAF_KINDS.get(text, SeqStmt)(node)], stmt_end
        finally:
            self.depth -= 1

    def _guard_span(self, i: int) -> Tuple[Tuple[int, int], int]:
        """Span inside the parens of a control clause at *i*; returns (span, close).

        A clause with no ``(`` before the end of its statement (malformed
        input such as ``while ;``) gets an empty guard that closes at *i*.
        """
        open_idx = i + 1
        while (open_idx < self.end
               and self.text[open_idx] not in ("(", ";", "{", "}")):
            open_idx += 1
        if open_idx >= self.end or self.text[open_idx] != "(":
            return (i + 1, i + 1), i
        close = self.match_forward(open_idx)
        return (open_idx + 1, close), close

    def _parse_if(self, i: int):
        span, close = self._guard_span(i)
        branch = self.new_head(span)
        then_items, after = self.parse_one(close + 1)
        else_items: list = []
        if after < self.end and self.text[after] == "else":
            else_items, after = self.parse_one(after + 1)
        return [IfStruct(branch, [("then", then_items), ("else", else_items)])], after

    def _parse_while(self, i: int):
        span, close = self._guard_span(i)
        head = self.new_head(span)
        body_items, after = self.parse_one(close + 1)
        return [LoopStruct(head, body_items, "while")], after

    def _parse_for(self, i: int):
        clause, close = self._guard_span(i)
        parts = split_top_level(self.stream, clause[0], close, ";")
        items: list = []
        if len(parts) >= 3:  # the init node keeps its ";"
            items.append(SeqStmt(self.new_node((clause[0], parts[0][1] + 1))))
            cond_span, incr_span = parts[1], (parts[2][0], close)
        else:  # malformed; treat the whole clause as the guard
            cond_span, incr_span = clause, (close, close)
        head = self.new_head(cond_span)
        body_items, after = self.parse_one(close + 1)
        trailer: list = []
        if incr_span[0] < incr_span[1]:
            trailer.append(SeqStmt(self.new_node(incr_span)))
        items.append(LoopStruct(head, body_items, "for", trailer))
        return items, after

    def _parse_do(self, i: int):
        body_items, after = self.parse_one(i + 1)
        # With a "while" the statement ends at the ";" past its guard;
        # without one it ends with the body.
        head_span = (i + 1, i + 1)
        if after < self.end and self.text[after] == "while":
            head_span, close = self._guard_span(after)
            after = self.statement_end(close + 1)
        head = self.new_head(head_span)
        return [LoopStruct(head, body_items, "dowhile")], after

    def _parse_switch(self, i: int):
        """A braced body is read once: a ``case``/``default`` label opens
        an arm, and each statement joins the arm opened last.  A bare
        block is read as more of the body, so its labels open arms too.
        Statements before the first label run on no path, so their nodes
        are dropped."""
        span, close = self._guard_span(i)
        branch = self.new_head(span)
        if close + 1 >= self.end or self.text[close + 1] != "{":
            # braceless switch: treat the lone statement as a "then" arm
            items, after = self.parse_one(close + 1)
            return [SwitchStruct(branch, [("case:0", items)], False)], after
        body_close = self.match_forward(close + 1)
        arms: List[Tuple[str, list]] = []
        kept = len(self.nodes)
        ends: List[int] = []  # the "}" of each bare block the scan is in
        k = close + 2
        while k < body_close:
            t = self.text[k]
            if ends and k >= ends[-1]:  # a statement may run past its "}"
                k = max(k, ends.pop() + 1)
            elif t == "{":
                ends.append(self.match_forward(k))
                k += 1
            elif t in ("case", "default"):
                colon = k + 1
                while colon < body_close and self.text[colon] != ":":
                    colon += 1
                expr = " ".join(self.text[k + 1:colon])
                arms.append((f"case:{expr}" if t == "case" else "default", []))
                k = colon + 1
            elif t == ";":
                k += 1
            else:
                items, k = self.parse_one(k)
                if arms:
                    arms[-1][1].extend(items)
                else:
                    del self.nodes[kept:]
        has_default = any(tag == "default" for tag, _arm in arms)
        return [SwitchStruct(branch, arms, has_default)], body_close + 1

    def _parse_try(self, i: int):
        items, after = self.parse_one(i + 1)
        while after < self.end and self.text[after] == "catch":
            span, close = self._guard_span(after)
            branch = self.new_head(span, "catch ")
            catch_items, after = self.parse_one(close + 1)
            items.append(IfStruct(branch, [("then", catch_items), ("else", [])]))
        return items, after


def build_cfg(func_scope: ScopeNode, stream: TokenStream) -> Cfg:
    """Build the structure plan and its nodes for one function body."""
    begin = func_scope.token_begin + 1
    end = max(begin, func_scope.token_end - 1)
    entry_line = stream.line[func_scope.token_begin]
    exit_line = (stream.line[func_scope.token_end - 1]
                 if func_scope.token_end - 1 < len(stream) else entry_line)
    builder = _CfgBuilder(stream, end, entry_line)

    try:
        if "goto" in stream.text[begin:end]:
            raise _Degraded("goto present")
        items = builder.parse_region(begin, end)
    except _Degraded as why:
        stream.diagnostics.append(Diagnostic(
            "MalformedControlFlow", f"{why}; control flow degraded to a chain",
            stream.file, entry_line, 1))
        builder = _CfgBuilder(stream, end, entry_line)
        items = _linear_chain(builder, begin, end)

    return Cfg(func=func_id_of(func_scope, stream), func_scope=func_scope,
               stream=stream, nodes=builder.nodes, entry_line=entry_line,
               exit_line=exit_line, structure=items)


def _linear_chain(builder: _CfgBuilder, begin: int, end: int) -> list:
    """Degraded mode: every statement in order, control keywords inert."""
    items: list = []
    i = begin
    while i < end:
        text = builder.text[i]
        if text in (";", "{", "}", "else", "do", "try"):
            i += 1
            continue
        if text in ("if", "while", "for", "switch", "catch"):
            _span, close = builder._guard_span(i)
            stmt_end = close + 1
        else:
            stmt_end = builder.statement_end(i)
        items.append(SeqStmt(builder.new_node((i, stmt_end))))
        i = stmt_end
    return items


_LEAF_NAMES = {SeqStmt: "Statement", ReturnStmt: "Return", BreakStmt: "Break",
               ContinueStmt: "Continue"}


def dump_cfg(cfg: Cfg) -> str:
    """The plan as indented rows, ``line kind (guard)``, between an Entry
    and an Exit row; arms are headed by their tag, loops by ``body:`` and
    ``trailer:``."""
    lines = [f"Entry {cfg.entry_line}"]
    stack: list = [(0, item) for item in reversed(cfg.structure)]
    while stack:
        depth, item = stack.pop()
        pad = "  " * depth
        if isinstance(item, str):
            lines.append(f"{pad}{item}:")
            continue
        if type(item) in _LEAF_NAMES:
            lines.append(f"{pad}{cfg.node(item.node).line} {_LEAF_NAMES[type(item)]}")
            continue
        if isinstance(item, LoopStruct):
            head, kind = cfg.node(item.head), f"Loop {item.style}"
            parts = [("body", item.body)] + ([("trailer", item.trailer)]
                                             if item.trailer else [])
        else:
            head = cfg.node(item.branch)
            kind = "If" if isinstance(item, IfStruct) else "Switch"
            parts = item.arms
        lines.append(f"{pad}{head.line} {kind} ({head.guard_text})")
        for tag, sub in reversed(parts):
            stack.extend((depth + 2, x) for x in reversed(sub))
            stack.append((depth + 1, tag))
    lines.append(f"Exit {cfg.exit_line}")
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
            if fid not in fcg.defined:  # a same-id twin is one candidate
                by_key.setdefault((scope.owner_class, scope.name,
                                   len(scope.params)), []).append(fid)
            fcg.defined[fid] = scope
        for decl in root.declared_funcs:
            key = (decl.class_name, decl.name, decl.arity)
            declared.setdefault(key, FuncId(decl.file, decl.class_name,
                                            decl.name, decl.arity))

    for root, stream in units:
        for scope in root.function_scopes:
            caller = func_id_of(scope, stream)
            _scan_calls(fcg, by_key, declared, scope, stream, caller)
    return fcg


def _scan_calls(fcg: Fcg, by_key, declared, scope: ScopeNode,
                stream: TokenStream, caller: FuncId) -> None:
    texts, kinds, known_types = stream.text, stream.kind, stream.known_types
    begin = scope.token_begin + 1
    end = scope.token_end - 1
    for i in range(begin, min(end, len(texts))):
        if kinds[i] is not TokenKind.IDENTIFIER or text_at(stream, i + 1) != "(":
            continue
        name = texts[i]
        prev = text_at(stream, i - 1)
        receiver_class = ""
        if prev == "::":
            qual = text_at(stream, i - 2)
            if qual in known_types:
                receiver_class = qual
            else:
                continue
        elif prev == "new" and name in known_types:
            receiver_class = name  # constructor call
        elif prev in TYPE_KEYWORDS or prev in known_types or prev in _NOT_CALL_PREV:
            continue  # declaration, not a direct call
        elif prev in (".", "->"):
            recv = i - 2
            if text_at(stream, recv) == "this":
                receiver_class = scope.owner_class
            elif recv >= 0 and kinds[recv] is TokenKind.IDENTIFIER:
                entry = stream.var(stream.var_id[recv])
                if entry is not None:
                    for word in entry.type_text.split():
                        if word in known_types:
                            receiver_class = word
                            break
                if not receiver_class:
                    continue  # unknown receiver; not resolvable
            else:
                continue
        close = stream.partner[i + 1]
        if not 0 <= close <= end:
            continue
        arity = 0 if close == i + 2 else len(split_top_level(stream, i + 2, close))
        line = stream.line[i]
        if stream.var_id[i] and not receiver_class:
            callee = FuncId("", "", name, arity)  # through a pointer: unresolved
        else:
            callee = _resolve_call(fcg, by_key, declared, name, line, receiver_class,
                                   scope.owner_class, arity, caller)
        fcg.add_edge(FcgEdge(caller, callee, i, line))


def _resolve_call(fcg: Fcg, by_key, declared, name: str, line: int,
                  receiver_class: str, caller_class: str, arity: int,
                  caller: FuncId) -> FuncId:
    classes = [receiver_class] if receiver_class else ([caller_class, ""] if caller_class else [""])
    for cls in classes:
        pool = by_key.get((cls, name, arity), [])
        if len(pool) == 1:
            return pool[0]
        if len(pool) > 1:
            same_file = [f for f in pool if f.file_name == caller.file_name]
            chosen = sorted(same_file or pool)[0]
            fcg.warnings.append(Defect(
                kind=DefectKind.AMBIGUOUS_CALL_WARNING,
                file=caller.file_name, line=line, func=caller.render(),
                message=(f"call to {name}/{arity} matches "
                         f"{len(pool)} definitions; using {chosen.render()}"),
            ))
            return chosen
        if (cls, name, arity) in declared:
            return declared[(cls, name, arity)]
    return FuncId("", receiver_class, name, arity)


def defined_successors(fcg: Fcg) -> Dict[FuncId, List[FuncId]]:
    """Callees of each defined function, in edge order, among defined ones."""
    callees: Dict[FuncId, List[FuncId]] = {f: [] for f in fcg.defined}
    for edge in fcg.edges:
        if edge.caller in callees and edge.callee in callees:
            callees[edge.caller].append(edge.callee)
    return callees


def post_order(successors: Dict[FuncId, List[FuncId]]) -> List[FuncId]:
    """Depth-first post-order: successors before the node that reaches
    them, roots and children visited in sorted order, cycles broken by
    the visited set.  Every successor must be a key of *successors*."""
    order: List[FuncId] = []
    seen: Set[FuncId] = set()
    for start in sorted(successors):
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, iter(sorted(successors[start])))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(sorted(successors[child]))))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def find_rings(fcg: Fcg) -> List[List[FuncId]]:
    """Strongly connected components that form call rings.

    A ring is an SCC with at least two members, or a single function that
    calls itself.  Components are found as in Kosaraju's algorithm: taken
    in reverse post order, each function not yet placed collects the
    callers that reach it.  Members are returned sorted, rings ordered by
    their first member, so output is deterministic.
    """
    graph = defined_successors(fcg)
    callers: Dict[FuncId, List[FuncId]] = {f: [] for f in graph}
    for caller, callees in graph.items():
        for callee in callees:
            callers[callee].append(caller)
    rings: List[List[FuncId]] = []
    seen: Set[FuncId] = set()
    for root in reversed(post_order(graph)):
        if root in seen:
            continue
        seen.add(root)
        scc, stack = [], [root]
        while stack:
            node = stack.pop()
            scc.append(node)
            for caller in callers[node]:
                if caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
        if len(scc) >= 2 or root in graph[root]:
            rings.append(sorted(scc))
    return sorted(rings, key=lambda ring: ring[0])


def dump_fcg(fcg: Fcg) -> str:
    lines = []
    for edge in sorted(fcg.edges, key=lambda e: (e.caller, e.site_line, e.callee)):
        lines.append(f"{edge.caller.render()} -> {edge.callee.render()}"
                     f" @{edge.caller.file_name}:{edge.site_line}")
    return "\n".join(lines)
