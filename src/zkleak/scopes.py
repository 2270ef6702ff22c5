"""Scope discovery, symbol tables and class shape extraction.

A single pass over the token stream builds a tree of lexically nested
scopes (file, namespace, class, function, control-flow bodies), assigns
every declared variable a unique positive var_id, and annotates each
token with the scope containing it plus the var_id its text resolves to.
Downstream passes never look names up again; they read the annotations.

The parsing here is deliberately lexical.  There is no type checking and
no template instantiation; a declaration is recognised by the shape
"specifiers, then declarators" where the specifiers contain at least one
builtin type word or a name already known to be a class or typedef.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .tokens import (
    Diagnostic,
    LexToken,
    TokenKind,
    TokenStream,
    TYPE_KEYWORDS,
)


class ScopeKind(Enum):
    GLOBAL = "eGlobal"
    NAMESPACE = "eNamespace"
    CLASS = "eClass"
    STRUCT = "eStruct"
    UNION = "eUnion"
    FUNCTION = "eFunction"
    IF = "eIf"
    ELSE = "eElse"
    FOR = "eFor"
    WHILE = "eWhile"
    DO_WHILE = "eDoWhile"
    SWITCH = "eSwitch"
    TRY = "eTry"
    CATCH = "eCatch"
    BLOCK = "eBlock"


_CLASSY = (ScopeKind.CLASS, ScopeKind.STRUCT, ScopeKind.UNION)

# Specifier words that may precede the type in a declaration.
_DECL_QUALIFIERS = frozenset("""
    const volatile static extern register mutable inline constexpr
    friend virtual typename thread_local
""".split())

_ELABORATION = frozenset(["struct", "class", "union", "enum"])

_ACCESS_WORDS = frozenset(["public", "protected", "private"])


@dataclass
class SymbolEntry:
    name: str
    var_id: int
    type_text: str
    is_pointer: bool
    decl_scope: "ScopeNode"
    is_member: bool = False
    is_global_or_static: bool = False
    decl_index: int = -1

    def __repr__(self) -> str:
        return f"SymbolEntry({self.name!r}, id={self.var_id}, type={self.type_text!r})"


@dataclass
class DeclaredFunc:
    """A prototype seen without a body; enough for call resolution."""

    name: str
    arity: int
    class_name: str
    file: str
    line: int
    is_virtual: bool = False
    param_text: str = ""


@dataclass(eq=False)
class ScopeNode:
    kind: ScopeKind
    name: str = ""
    parent: Optional["ScopeNode"] = None
    token_begin: int = 0
    token_end: int = 0
    scope_id: int = 0
    children: List["ScopeNode"] = field(default_factory=list)
    symbols: Dict[str, List[SymbolEntry]] = field(default_factory=dict)
    # Function-only metadata.
    params: List[SymbolEntry] = field(default_factory=list)
    owner_class: str = ""
    is_virtual: bool = False
    name_index: int = -1
    header_index: int = -1
    # Root-only registries.
    class_scopes: Dict[str, "ScopeNode"] = field(default_factory=dict)
    function_scopes: List["ScopeNode"] = field(default_factory=list)
    declared_funcs: List[DeclaredFunc] = field(default_factory=list)
    pointer_typedefs: Set[str] = field(default_factory=set)

    def add_symbol(self, entry: SymbolEntry) -> None:
        self.symbols.setdefault(entry.name, []).append(entry)

    def root(self) -> "ScopeNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def enclosing(self, *kinds: ScopeKind) -> Optional["ScopeNode"]:
        node = self
        while node is not None:
            if node.kind in kinds:
                return node
            node = node.parent
        return None

    def __repr__(self) -> str:
        return f"ScopeNode({self.kind.value}, {self.name!r}, [{self.token_begin}..{self.token_end}))"


@dataclass
class ClassInfo:
    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    members: List[SymbolEntry] = field(default_factory=list)
    pointer_members: List[SymbolEntry] = field(default_factory=list)
    ctors: List[Tuple[int, int]] = field(default_factory=list)
    dtor: Optional[Tuple[int, int]] = None
    dtor_is_virtual: bool = False
    has_dtor_decl: bool = False
    copy_ctor: Optional[Tuple[int, int]] = None
    assign_op: Optional[Tuple[int, int]] = None
    scope: Optional[ScopeNode] = None


def resolve(name: str, scope: ScopeNode) -> Optional[SymbolEntry]:
    """Innermost-outward name lookup.

    Walks the scope chain toward the file scope; a function defined out of
    line additionally consults its owning class between its own symbols
    and the enclosing file scope, which is how unqualified member access
    inside such definitions binds.
    """
    node = scope
    root = scope.root()
    while node is not None:
        entries = node.symbols.get(name)
        if entries:
            return entries[-1]
        if node.kind is ScopeKind.FUNCTION and node.owner_class:
            cls = root.class_scopes.get(node.owner_class)
            if cls is not None:
                entries = cls.symbols.get(name)
                if entries:
                    return entries[-1]
        node = node.parent
    return None


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------

def build_scope_tree(stream: TokenStream) -> ScopeNode:
    """Build and annotate the scope tree for *stream*.

    On return every token carries scope_id, identifiers additionally a
    var_id when they resolve, and the stream's known_types registry holds
    class and typedef names.  Brace imbalance is recovered from by closing
    whatever remains open at end of stream and leaving a diagnostic.
    """
    _resplit_shift_tokens(stream)
    open_to_close, close_to_open = _match_brackets(stream, "{", "}", "UnbalancedBraces")
    paren_close_to_open = _match_brackets(stream, "(", ")", "UnbalancedParens")[1]

    counter = _Counter()
    root = ScopeNode(ScopeKind.GLOBAL, "", None, 0, len(stream), counter.next_scope())
    scope_by_id = {root.scope_id: root}

    _collect_types(stream, open_to_close, root)

    # Scope creation walk.
    stack = [(root, len(stream))]
    for i, tok in enumerate(stream):
        while i >= stack[-1][1]:
            stack.pop()
        if tok.text != "{" or i not in open_to_close:
            continue
        parent = stack[-1][0]
        info = _classify_open(stream, i, parent, paren_close_to_open)
        if info is None:
            continue  # initializer braces open no scope
        kind, name, meta = info
        node = ScopeNode(kind, name, parent, i, open_to_close[i] + 1, counter.next_scope())
        scope_by_id[node.scope_id] = node
        parent.children.append(node)
        stack.append((node, node.token_end))
        if kind in _CLASSY and name:
            root.class_scopes.setdefault(name, node)
        if kind is ScopeKind.FUNCTION:
            node.name_index = meta["name_index"]
            node.header_index = meta["header_index"]
            node.owner_class = meta["owner_class"]
            node.is_virtual = meta["is_virtual"]
            if not node.owner_class:
                cls = parent.enclosing(*_CLASSY)
                if cls is not None:
                    node.owner_class = cls.name
            _parse_parameters(stream, meta["params_open"], meta["params_close"],
                              node, counter)
            root.function_scopes.append(node)
        elif kind in _CLASSY or kind is ScopeKind.NAMESPACE:
            node.header_index = meta["header_index"]
            node.name_index = meta["name_index"]

    _annotate_scope_ids(root, stream)
    _scan_declarations(stream, root, scope_by_id, counter)
    _annotate_var_ids(stream, root, scope_by_id)

    stream.scoped = True
    return root


class _Counter:
    def __init__(self) -> None:
        self._scope = 0
        self._var = 0

    def next_scope(self) -> int:
        self._scope += 1
        return self._scope

    def next_var(self) -> int:
        self._var += 1
        return self._var


def _resplit_shift_tokens(stream: TokenStream) -> None:
    """Split ``>>`` back into two ``>`` where it closes nested templates."""
    pending: List[int] = []
    i = 0
    while i < len(stream):
        tok = stream[i]
        if tok.text in (";", "{", "}", ")"):
            pending.clear()
        elif tok.text == "<":
            prev = stream.get(i - 1)
            if prev is not None and (prev.kind is TokenKind.IDENTIFIER
                                     or prev.text in TYPE_KEYWORDS):
                pending.append(i)
        elif tok.text == ">" and pending:
            pending.pop()
        elif tok.text == ">>" and len(pending) >= 2:
            pending.pop()
            pending.pop()
            first = LexToken(">", TokenKind.OPERATOR, tok.file, tok.line, tok.column)
            second = LexToken(">", TokenKind.OPERATOR, tok.file, tok.line, tok.column + 1)
            stream.split_token(i, [first, second])
            i += 1
        i += 1


def _match_brackets(stream: TokenStream, open_text: str, close_text: str,
                    code: str) -> Tuple[Dict[int, int], Dict[int, int]]:
    opens: List[int] = []
    open_to_close: Dict[int, int] = {}
    close_to_open: Dict[int, int] = {}
    for i, tok in enumerate(stream):
        if tok.text == open_text:
            opens.append(i)
        elif tok.text == close_text:
            if opens:
                j = opens.pop()
                open_to_close[j] = i
                close_to_open[i] = j
            else:
                stream.diagnostics.append(Diagnostic(
                    code, f"unmatched {close_text!r}", tok.file, tok.line, tok.column))
    for j in opens:
        tok = stream[j]
        stream.diagnostics.append(Diagnostic(
            code, f"unmatched {open_text!r}", tok.file, tok.line, tok.column))
        open_to_close[j] = len(stream) - 1
    return open_to_close, close_to_open


_INITIALIZER_PRECEDERS = frozenset(["=", ",", "(", "{", "return"])


def _classify_open(stream: TokenStream, i: int, parent: ScopeNode,
                   paren_rev: Dict[int, int]):
    """Decide what scope (if any) the ``{`` at index *i* opens.

    Returns (kind, name, meta) or None for initializer braces.
    """
    prev = stream[i - 1] if i > 0 else None
    if prev is None:
        return ScopeKind.BLOCK, "", {}
    if prev.text in _INITIALIZER_PRECEDERS:
        return None
    if prev.text == "else":
        return ScopeKind.ELSE, "", {}
    if prev.text == "do":
        return ScopeKind.DO_WHILE, "", {}
    if prev.text == "try":
        return ScopeKind.TRY, "", {}
    if prev.text == "namespace":
        return ScopeKind.NAMESPACE, "", {"header_index": i - 1, "name_index": -1}

    if prev.text == ")":
        close = i - 1
        open_idx = paren_rev.get(close)
        if open_idx is None:
            return ScopeKind.BLOCK, "", {}
        before = stream[open_idx - 1] if open_idx > 0 else None
        control = {
            "if": ScopeKind.IF, "for": ScopeKind.FOR, "while": ScopeKind.WHILE,
            "switch": ScopeKind.SWITCH, "catch": ScopeKind.CATCH,
        }
        if before is not None and before.text in control:
            return control[before.text], "", {}
        if parent.enclosing(ScopeKind.FUNCTION) is not None:
            return ScopeKind.BLOCK, "", {}  # no nested functions in C/C++
        header = _function_header(stream, close, paren_rev)
        if header is None:
            return ScopeKind.BLOCK, "", {}
        return ScopeKind.FUNCTION, header["name"], header

    # A name (or base list) before the brace: look for a class-like head.
    head = _class_header(stream, i)
    if head is not None:
        keyword, name, header_index, name_index = head
        kind = {
            "class": ScopeKind.CLASS, "struct": ScopeKind.STRUCT,
            "union": ScopeKind.UNION, "namespace": ScopeKind.NAMESPACE,
        }.get(keyword)
        if kind is None:  # enum bodies hold no variables worth scoping
            return ScopeKind.BLOCK, "", {}
        return kind, name, {"header_index": header_index, "name_index": name_index}
    return ScopeKind.BLOCK, "", {}


def _class_header(stream: TokenStream, brace_idx: int):
    """Scan back from a ``{`` for ``class|struct|union|namespace|enum X``."""
    j = brace_idx - 1
    steps = 0
    while j >= 0 and steps < 64:
        tok = stream[j]
        if tok.text in (";", "}", "{", ")", "="):
            return None
        if tok.text in ("class", "struct", "union", "namespace", "enum"):
            name = ""
            name_index = -1
            if j + 1 < brace_idx:
                nxt = stream[j + 1]
                if nxt.kind is TokenKind.IDENTIFIER:
                    name = nxt.text
                    name_index = j + 1
            return tok.text, name, j, name_index
        ok = (tok.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
              or tok.text in (":", ",", "::", "<", ">"))
        if not ok:
            return None
        j -= 1
        steps += 1
    return None


def _function_header(stream: TokenStream, close_paren: int,
                     paren_rev: Dict[int, int]):
    """Resolve a ``... ) {`` prefix to a function header.

    Walks back through constructor initializer lists (``: a(x), b(y)``)
    until the real parameter list is found.  Returns None when the shape
    is not function-like.
    """
    close = close_paren
    for _ in range(32):  # init lists are short; bound the walk
        open_idx = paren_rev.get(close)
        if open_idx is None or open_idx == 0:
            return None
        j = open_idx - 1
        tok = stream[j]
        name = None
        name_start = j
        if tok.text == "=" and j > 0 and stream[j - 1].text == "operator":
            name = "operator="
            name_start = j - 1
        elif tok.kind is TokenKind.IDENTIFIER:
            name = tok.text
            if j > 0 and stream[j - 1].text == "~":
                name = "~" + name
                name_start = j - 1
        if name is None:
            return None
        owner_class = ""
        if name_start > 1 and stream[name_start - 1].text == "::" \
                and stream[name_start - 2].kind is TokenKind.IDENTIFIER:
            owner_class = stream[name_start - 2].text
            name_start = name_start - 2
        before = stream[name_start - 1] if name_start > 0 else None
        if before is not None and before.text in (",", ":") and name_start > 1 \
                and stream[name_start - 2].text == ")":
            close = name_start - 2  # initializer-list item; keep walking
            continue
        is_virtual = _virtual_in_specifiers(stream, name_start)
        return {
            "name": name,
            "name_index": name_start,
            "header_index": name_start,
            "owner_class": owner_class,
            "is_virtual": is_virtual,
            "params_open": open_idx,
            "params_close": close,
        }
    return None


def _virtual_in_specifiers(stream: TokenStream, name_start: int) -> bool:
    j = name_start - 1
    steps = 0
    while j >= 0 and steps < 16:
        text = stream[j].text
        if text in (";", "}", "{", ")", ":"):
            return False
        if text == "virtual":
            return True
        j -= 1
        steps += 1
    return False


def _parse_parameters(stream: TokenStream, open_idx: int, close_idx: int,
                      func: ScopeNode, counter: _Counter) -> None:
    groups = _split_top_level(stream, open_idx + 1, close_idx)
    for group in groups:
        tokens = [stream[k] for k in range(group[0], group[1])]
        if not tokens or (len(tokens) == 1 and tokens[0].text == "void"):
            continue
        eq_at = next((n for n, t in enumerate(tokens) if t.text == "="), len(tokens))
        head = tokens[:eq_at]
        name_tok = next((t for t in reversed(head)
                         if t.kind is TokenKind.IDENTIFIER), None)
        is_pointer = any(t.text == "*" for t in head)
        type_text = " ".join(t.text for t in head if t is not name_tok)
        entry = SymbolEntry(
            name=name_tok.text if name_tok else f"<unnamed{len(func.params)}>",
            var_id=counter.next_var(),
            type_text=type_text,
            is_pointer=is_pointer,
            decl_scope=func,
            decl_index=name_tok.index if name_tok else open_idx,
        )
        func.params.append(entry)
        if name_tok is not None:
            func.add_symbol(entry)


def _split_top_level(stream: TokenStream, begin: int, end: int) -> List[Tuple[int, int]]:
    """Comma-separated groups within [begin, end), ignoring nested brackets."""
    groups: List[Tuple[int, int]] = []
    depth = 0
    start = begin
    for i in range(begin, end):
        text = stream[i].text
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == "," and depth == 0:
            groups.append((start, i))
            start = i + 1
    groups.append((start, end))
    return [g for g in groups if g[0] < g[1]]


def _annotate_scope_ids(root: ScopeNode, stream: TokenStream) -> None:
    def paint(node: ScopeNode) -> None:
        for i in range(node.token_begin, node.token_end):
            stream[i].scope_id = node.scope_id
        for child in node.children:
            paint(child)
    for i in range(len(stream)):
        stream[i].scope_id = root.scope_id
    for child in root.children:
        paint(child)


def _collect_types(stream: TokenStream, open_to_close: Dict[int, int],
                   root: ScopeNode) -> None:
    """Register class/struct/union, typedef and using names up front."""
    types: Set[str] = set()
    pointer_typedefs: Set[str] = set()
    i = 0
    n = len(stream)
    while i < n:
        text = stream[i].text
        if text in ("class", "struct", "union") and i + 1 < n:
            nxt = stream[i + 1]
            if nxt.kind is TokenKind.IDENTIFIER:
                after = stream[i + 2].text if i + 2 < n else ""
                if after in ("{", ":", ";"):
                    types.add(nxt.text)
        elif text == "typedef":
            j = i + 1
            saw_star = False
            while j < n and stream[j].text != ";":
                if stream[j].text == "{" and j in open_to_close:
                    j = open_to_close[j]
                if stream[j].text == "*":
                    saw_star = True
                j += 1
            name_tok = stream[j - 1] if j - 1 > i else None
            if name_tok is not None and name_tok.kind is TokenKind.IDENTIFIER:
                types.add(name_tok.text)
                if saw_star:
                    pointer_typedefs.add(name_tok.text)
            i = j
        elif text == "using" and i + 2 < n and stream[i + 2].text == "=":
            name_tok = stream[i + 1]
            if name_tok.kind is TokenKind.IDENTIFIER:
                types.add(name_tok.text)
                j = i + 3
                while j < n and stream[j].text != ";":
                    if stream[j].text == "*":
                        pointer_typedefs.add(name_tok.text)
                    j += 1
        i += 1
    stream.known_types = types
    root.pointer_typedefs = pointer_typedefs


_STMT_ENDERS = frozenset([";", "{", "}"])


def _scan_declarations(stream: TokenStream, root: ScopeNode,
                       scope_by_id: Dict[int, ScopeNode],
                       counter: _Counter) -> None:
    pointer_typedefs = root.pointer_typedefs
    n = len(stream)
    stmt_start = True
    i = 0
    while i < n:
        tok = stream[i]
        if stmt_start and (tok.text in TYPE_KEYWORDS
                           or tok.text in _DECL_QUALIFIERS
                           or tok.text in _ELABORATION
                           or tok.text in stream.known_types
                           or tok.text == "virtual"
                           or tok.text == "~"
                           or tok.text == "operator"):
            scope = scope_by_id[tok.scope_id]
            end = _parse_declaration(stream, i, scope, root, counter, pointer_typedefs)
            if end is not None:
                i = end
                stmt_start = True
                continue
        if tok.text in _STMT_ENDERS:
            stmt_start = True
        elif tok.text == "(" and i > 0 and stream[i - 1].text == "for":
            stmt_start = True  # for-init declarations
        elif tok.text == ":" and i > 0 and stream[i - 1].text in _ACCESS_WORDS:
            stmt_start = True
        else:
            stmt_start = False
        i += 1


def _parse_declaration(stream: TokenStream, start: int, scope: ScopeNode,
                       root: ScopeNode, counter: _Counter,
                       pointer_typedefs: Set[str]) -> Optional[int]:
    """Try to parse one declaration statement starting at *start*.

    Returns the index one past the terminating ``;`` on success, or None
    when the tokens do not form a variable or prototype declaration.
    """
    n = len(stream)
    i = start
    saw_type = False
    static_seen = False
    virtual_seen = False
    type_tokens: List[str] = []

    while i < n:
        text = stream[i].text
        if text == "static":
            static_seen = True
        elif text == "virtual":
            virtual_seen = True
        elif text in TYPE_KEYWORDS:
            saw_type = True
            type_tokens.append(text)
        elif text in stream.known_types and stream[i].kind is TokenKind.IDENTIFIER:
            # Known type name, but only in type position (a use like
            # "A = b" never follows a specifier run with more specifiers).
            nxt = stream[i + 1].text if i + 1 < n else ""
            if nxt in ("=", ".", "->", "(", "++", "--", "[", ")"):
                break
            saw_type = True
            type_tokens.append(text)
        elif text in _DECL_QUALIFIERS or text in _ELABORATION:
            pass
        else:
            break
        i += 1

    if not saw_type and text_at(stream, i) not in ("~", "operator"):
        # Constructor prototypes carry no return type: "Name ( ... ) ;"
        # directly inside class Name.
        ctor_like = (scope.kind in _CLASSY
                     and text_at(stream, i) == scope.name
                     and text_at(stream, i + 1) == "(")
        if not ctor_like:
            return None

    entries: List[SymbolEntry] = []
    while i < n:
        stars = 0
        while i < n and stream[i].text in ("*", "&", "const", "volatile"):
            if stream[i].text == "*":
                stars += 1
            i += 1
        if i >= n:
            return None
        name_tok = stream[i]
        name = None
        if name_tok.text == "~" and i + 1 < n \
                and stream[i + 1].kind is TokenKind.IDENTIFIER:
            name = "~" + stream[i + 1].text
            i += 2
        elif name_tok.text == "operator" and i + 1 < n:
            name = "operator" + stream[i + 1].text
            i += 2
        elif name_tok.kind is TokenKind.IDENTIFIER:
            name = name_tok.text
            i += 1
        else:
            return None

        if i < n and stream[i].text == "(":
            # Function declarator: record a prototype, declare nothing.
            close = _skip_balanced(stream, i)
            if close is None:
                return None
            arity = _count_args(stream, i, close)
            j = close + 1
            while j < n and stream[j].text in ("const", "noexcept", "override"):
                j += 1
            if j < n and stream[j].text == "=":  # pure virtual "= 0"
                j += 2
            if j < n and stream[j].text == ";":
                class_name = ""
                cls = scope.enclosing(*_CLASSY)
                if cls is not None:
                    class_name = cls.name
                params = " ".join(stream[k].text for k in range(i + 1, close))
                root.declared_funcs.append(DeclaredFunc(
                    name=name, arity=arity, class_name=class_name,
                    file=stream.file, line=name_tok.line,
                    is_virtual=virtual_seen, param_text=params))
                return j + 1
            return None

        is_pointer = stars > 0 or any(t in pointer_typedefs for t in type_tokens)
        is_member = scope.kind in _CLASSY and not static_seen
        is_global = (scope.kind in (ScopeKind.GLOBAL, ScopeKind.NAMESPACE)
                     or static_seen)
        entry = SymbolEntry(
            name=name,
            var_id=counter.next_var(),
            type_text=" ".join(type_tokens) + (" " + "*" * stars if stars else ""),
            is_pointer=is_pointer,
            decl_scope=scope,
            is_member=is_member,
            is_global_or_static=is_global,
            decl_index=name_tok.index,
        )
        entries.append(entry)

        # Array suffixes, then an optional initializer.
        while i < n and stream[i].text == "[":
            close = _skip_balanced(stream, i)
            if close is None:
                return None
            i = close + 1
        if i < n and stream[i].text == "=":
            depth = 0
            i += 1
            while i < n:
                text = stream[i].text
                if text in ("(", "[", "{"):
                    depth += 1
                elif text in (")", "]", "}"):
                    if depth == 0:
                        return None
                    depth -= 1
                elif depth == 0 and text in (",", ";"):
                    break
                i += 1
        if i >= n:
            return None
        if stream[i].text == ",":
            declared_any = True
            i += 1
            continue
        if stream[i].text == ";":
            for e in entries:
                scope.add_symbol(e)
            return i + 1
        return None
    return None


def text_at(stream: TokenStream, i: int) -> str:
    return stream[i].text if 0 <= i < len(stream) else ""


def _skip_balanced(stream: TokenStream, open_idx: int) -> Optional[int]:
    pairs = {"(": ")", "[": "]", "{": "}"}
    close_text = pairs[stream[open_idx].text]
    open_text = stream[open_idx].text
    depth = 0
    for i in range(open_idx, len(stream)):
        text = stream[i].text
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return i
    return None


def _count_args(stream: TokenStream, open_idx: int, close_idx: int) -> int:
    if close_idx == open_idx + 1:
        return 0
    if close_idx == open_idx + 2 and stream[open_idx + 1].text == "void":
        return 0
    return len(_split_top_level(stream, open_idx + 1, close_idx))


def _annotate_var_ids(stream: TokenStream, root: ScopeNode,
                      scope_by_id: Dict[int, ScopeNode]) -> None:
    for tok in stream:
        if tok.kind is not TokenKind.IDENTIFIER:
            continue
        scope = scope_by_id.get(tok.scope_id, root)
        entry = resolve(tok.text, scope)
        if entry is not None:
            tok.var_id = entry.var_id


# ---------------------------------------------------------------------------
# Class shape extraction
# ---------------------------------------------------------------------------

#: Body span for special members that are declared but not defined here.
_NO_BODY = (-1, -1)


def collect_class_info(root: ScopeNode, stream: TokenStream) -> List[ClassInfo]:
    """One ClassInfo per class/struct scope, in source order."""
    infos: List[ClassInfo] = []
    class_scopes = [s for s in _walk(root) if s.kind in (ScopeKind.CLASS, ScopeKind.STRUCT)]
    for scope in class_scopes:
        if not scope.name:
            continue
        header_tok = stream[scope.header_index] if scope.header_index >= 0 else stream[scope.token_begin]
        info = ClassInfo(name=scope.name, line=header_tok.line, scope=scope)
        info.bases = _parse_bases(stream, scope)
        for entries in scope.symbols.values():
            for entry in entries:
                if entry.is_member:
                    info.members.append(entry)
                    if entry.is_pointer:
                        info.pointer_members.append(entry)
        info.members.sort(key=lambda e: e.decl_index)
        info.pointer_members.sort(key=lambda e: e.decl_index)

        defs = [s for s in scope.children if s.kind is ScopeKind.FUNCTION]
        defs += [s for s in root.function_scopes
                 if s.owner_class == scope.name and s.parent is not scope
                 and s.parent.enclosing(*_CLASSY) is not scope]
        for func in defs:
            body = (func.token_begin, func.token_end)
            if func.name == scope.name:
                info.ctors.append(body)
                if _is_copy_signature(func, scope.name):
                    info.copy_ctor = body
            elif func.name == "~" + scope.name:
                info.dtor = body
                info.has_dtor_decl = True
                info.dtor_is_virtual = info.dtor_is_virtual or func.is_virtual
            elif func.name == "operator=":
                info.assign_op = body
        for decl in root.declared_funcs:
            if decl.class_name != scope.name:
                continue
            if decl.name == "~" + scope.name:
                info.has_dtor_decl = True
                info.dtor_is_virtual = info.dtor_is_virtual or decl.is_virtual
            elif (decl.name == scope.name and decl.arity == 1
                    and scope.name in decl.param_text.split()):
                if info.copy_ctor is None:
                    info.copy_ctor = _NO_BODY
            elif decl.name == "operator=":
                if info.assign_op is None:
                    info.assign_op = _NO_BODY
        infos.append(info)
    return infos


def _is_copy_signature(func: ScopeNode, class_name: str) -> bool:
    if len(func.params) != 1:
        return False
    return class_name in func.params[0].type_text.split()


def _parse_bases(stream: TokenStream, scope: ScopeNode) -> List[str]:
    bases: List[str] = []
    if scope.name_index < 0:
        return bases
    i = scope.name_index + 1
    if text_at(stream, i) != ":":
        return bases
    i += 1
    current: Optional[str] = None
    while i < scope.token_begin:
        tok = stream[i]
        if tok.text == ",":
            if current:
                bases.append(current)
            current = None
        elif tok.kind is TokenKind.IDENTIFIER:
            current = tok.text  # keep the last name of a qualified base
        i += 1
    if current:
        bases.append(current)
    return bases


def _walk(node: ScopeNode):
    yield node
    for child in node.children:
        yield from _walk(child)


def dump_scopes(root: ScopeNode, stream: TokenStream) -> str:
    """Indented ``kind name [beginLine..endLine]`` listing."""
    lines: List[str] = []

    def line_of(index: int) -> int:
        if 0 <= index < len(stream):
            return stream[index].line
        return stream[-1].line if len(stream) else 1

    def emit(node: ScopeNode, depth: int) -> None:
        begin = 1 if node.parent is None else line_of(node.token_begin)
        end = stream.loc_count if node.parent is None else line_of(node.token_end - 1)
        name = node.name or "-"
        lines.append(f"{'  ' * depth}{node.kind.value} {name} [{begin}..{end}]")
        for child in node.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
