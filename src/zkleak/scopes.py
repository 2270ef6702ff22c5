"""Scope discovery, symbol tables and class shape extraction.

One walk over the token stream first pairs every bracket into the
stream's bracket table, where later passes look a bracket's partner up
instead of scanning for it.  A second walk builds a tree of lexically
nested scopes (file, namespace, class, function, control-flow bodies).
Each declaration is then appended to the stream's ``vars``, and its
index there is the variable's var_id (positive, unique in the file).  A
last source-order walk gives each identifier the var_id its text names
where it stands.  Downstream passes never look names up again; they read
the var ids.

The parsing here is deliberately lexical.  There is no type checking and
no template instantiation; a declaration is recognised by the shape
"specifiers, then declarators" where the specifiers contain at least one
builtin type word or a name already known to be a class or typedef.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .tokens import Diagnostic, TokenKind, TokenStream, TYPE_KEYWORDS


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


@dataclass(slots=True)
class SymbolEntry:
    name: str
    var_id: int
    type_text: str
    is_pointer: bool
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
    is_virtual: bool = False
    param_text: str = ""


# The symbols of every scope that declares nothing.  It is read-only, so a
# write that skips ``add_symbol`` raises instead of reaching all of them.
_NO_SYMBOLS: Mapping[str, List[SymbolEntry]] = MappingProxyType({})


@dataclass(eq=False, slots=True)
class ScopeNode:
    """One lexical scope, ``[token_begin, token_end)`` in the stream.

    Most scopes are control bodies that declare nothing and hold no
    nested scope, so ``children``, ``symbols`` and ``params`` start as
    shared empties (a tuple, a read-only mapping, a tuple) and become a
    list or dict of their own on their first write.  Only the scope pass
    here writes them; every later reader only reads.
    """

    kind: ScopeKind
    name: str = ""
    parent: Optional["ScopeNode"] = None
    token_begin: int = 0
    token_end: int = 0
    children: Sequence["ScopeNode"] = ()
    symbols: Mapping[str, List[SymbolEntry]] = field(default_factory=lambda: _NO_SYMBOLS)
    # Function-only metadata.
    params: Sequence[SymbolEntry] = ()
    owner_class: str = ""
    is_virtual: bool = False
    # Class-like only: token indices of the name and of the keyword.
    name_index: int = -1
    header_index: int = -1
    # Root-only registries, None on every other scope.
    class_scopes: Optional[Dict[str, "ScopeNode"]] = None
    function_scopes: Optional[List["ScopeNode"]] = None
    declared_funcs: Optional[List[DeclaredFunc]] = None
    pointer_typedefs: Optional[Set[str]] = None

    def add_symbol(self, entry: SymbolEntry) -> None:
        if not self.symbols:
            self.symbols = {}
        self.symbols.setdefault(entry.name, []).append(entry)

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
    pointer_members: List[SymbolEntry] = field(default_factory=list)
    ctors: List[Tuple[int, int]] = field(default_factory=list)
    dtor: Optional[Tuple[int, int]] = None
    dtor_is_virtual: bool = False
    copy_ctor: Optional[Tuple[int, int]] = None
    assign_op: Optional[Tuple[int, int]] = None


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------

def build_scope_tree(stream: TokenStream) -> ScopeNode:
    """Build the scope tree for *stream* and give identifiers var ids.

    On return ``stream.partner`` holds the bracket table, ``stream.vars``
    every declaration by var id, identifiers a var_id when they name a
    declaration, and the stream's known_types registry holds class and
    typedef names.  Brace imbalance is recovered from by closing whatever
    remains open at end of stream and leaving a diagnostic.
    """
    _pair_brackets(stream)

    root = ScopeNode(ScopeKind.GLOBAL, "", None, 0, len(stream),
                     class_scopes={}, function_scopes=[], declared_funcs=[],
                     pointer_typedefs=set())
    _collect_types(stream, root)

    # Scope creation walk.  Each stack entry is (scope, token_end, whether
    # a function encloses the scope, its innermost class-like scope), and
    # each token takes the innermost scope open at it.
    innermost: List[ScopeNode] = []
    stack: List[Tuple[ScopeNode, int, bool, Optional[ScopeNode]]] = [
        (root, len(stream), False, None)]
    for i, text in enumerate(stream.text):
        while i >= stack[-1][1]:
            stack.pop()
        innermost.append(stack[-1][0])
        if text != "{":
            continue
        parent, _, in_function, cls = stack[-1]
        info = _classify_open(stream, i, parent, in_function)
        if info is None:
            continue  # initializer braces open no scope
        kind, name, meta = info
        close = stream.partner[i] if stream.partner[i] >= 0 else len(stream) - 1
        node = ScopeNode(kind, name, parent, i, close + 1)
        if not parent.children:
            parent.children = []
        parent.children.append(node)
        innermost[i] = node
        if kind in _CLASSY:
            cls = node
            if name:
                root.class_scopes.setdefault(name, node)
            node.header_index = meta["header_index"]
            node.name_index = meta["name_index"]
        elif kind is ScopeKind.FUNCTION:
            in_function = True
            node.owner_class = meta["owner_class"] or (cls.name if cls else "")
            node.is_virtual = meta["is_virtual"]
            _parse_parameters(stream, meta["params_open"], meta["params_close"],
                              node, root.pointer_typedefs)
            root.function_scopes.append(node)
        stack.append((node, node.token_end, in_function, cls))

    _scan_declarations(stream, root, innermost)
    _annotate_var_ids(stream, root)

    stream.scoped = True
    return root


# Bracket text -> (kind, opens).  Each kind is matched with its own stack.
_BRACKETS = {"(": (0, True), ")": (0, False), "[": (1, True), "]": (1, False),
             "{": (2, True), "}": (2, False)}


def _pair_brackets(stream: TokenStream) -> None:
    """Split template-closing ``>>`` tokens and fill ``stream.partner``.

    One walk pairs the brackets of each kind on a stack of their own and
    finds each ``>>`` that closes two templates opened after a name; the
    columns are then rebuilt once with those split in two.  Unmatched
    braces and parens become diagnostics: braces first, then parens;
    within a kind, unmatched closes in token order, then the opens left
    on the stack, bottom up.
    """
    texts, kinds = stream.text, stream.kind
    partner = array("i", [-1]) * len(texts)
    stacks: Tuple[List[int], ...] = ([], [], [])
    strays: Tuple[List[int], ...] = ([], [], [])
    splits: List[int] = []  # the ">>" tokens to split, by index before it
    templates = 0  # template "<"s open since the last ";", "{", "}" or ")"
    for i, text in enumerate(texts):
        bracket = _BRACKETS.get(text)
        if bracket is not None:
            kind, opens = bracket
            at = i + len(splits)  # the index after the splits before it
            if opens:
                stacks[kind].append(at)
            elif stacks[kind]:
                j = stacks[kind].pop()
                partner[j] = at
                partner[at] = j
            else:
                strays[kind].append(at)
            if text in ("{", "}", ")"):
                templates = 0
        elif text == ";":
            templates = 0
        elif text == "<":
            if i and (kinds[i - 1] is TokenKind.IDENTIFIER
                      or texts[i - 1] in TYPE_KEYWORDS):
                templates += 1
        elif text == ">":
            if templates:
                templates -= 1
        elif text == ">>" and templates >= 2:
            templates -= 2
            splits.append(i)
            partner.append(-1)
    if splits:
        _split_shifts(stream, splits)
    stream.partner = partner
    for kind, code in ((2, "UnbalancedBraces"), (0, "UnbalancedParens")):
        for j in strays[kind] + stacks[kind]:
            stream.diagnostics.append(Diagnostic(
                code, f"unmatched {stream.text[j]!r}", stream.file,
                stream.line[j], stream.col[j]))


def _split_shifts(stream: TokenStream, splits: List[int]) -> None:
    """Rebuild the columns with each ``>>`` at *splits* as two ``>``."""
    texts, kinds, lines, cols = stream.text, stream.kind, stream.line, stream.col
    text: List[str] = []
    kind: List[TokenKind] = []
    line, col = array("i"), array("i")
    begin = 0
    for i in splits:
        text += texts[begin:i]
        text += (">", ">")
        kind += kinds[begin:i]
        kind += (TokenKind.OPERATOR, TokenKind.OPERATOR)
        line += lines[begin:i]
        line.extend((lines[i], lines[i]))
        col += cols[begin:i]
        col.extend((cols[i], cols[i] + 1))
        begin = i + 1
    text += texts[begin:]
    kind += kinds[begin:]
    line += lines[begin:]
    col += cols[begin:]
    stream.replace(text, kind, line, col)


_INITIALIZER_PRECEDERS = frozenset(["=", ",", "(", "{", "return"])

# The keyword before a ``( … ) {`` that makes the brace a control body.
_CONTROL_SCOPES = {
    "if": ScopeKind.IF, "for": ScopeKind.FOR, "while": ScopeKind.WHILE,
    "switch": ScopeKind.SWITCH, "catch": ScopeKind.CATCH,
}

# The keyword right before a ``{`` that opens a body of its own.
_KEYWORD_SCOPES = {"else": ScopeKind.ELSE, "do": ScopeKind.DO_WHILE,
                   "try": ScopeKind.TRY, "namespace": ScopeKind.NAMESPACE}

# The head keyword of a class-like body; ``enum`` opens a plain block.
_CLASS_KEYWORD_SCOPES = {
    "class": ScopeKind.CLASS, "struct": ScopeKind.STRUCT,
    "union": ScopeKind.UNION, "namespace": ScopeKind.NAMESPACE,
}


def _classify_open(stream: TokenStream, i: int, parent: ScopeNode,
                   in_function: bool):
    """Decide what scope (if any) the ``{`` at index *i* opens inside
    *parent*; *in_function* tells whether a function encloses *parent*.

    Returns (kind, name, meta) or None for initializer braces.
    """
    if i == 0:
        return ScopeKind.BLOCK, "", {}
    prev = stream.text[i - 1]
    if (i - 1 == parent.token_begin and prev == "{"
            and parent.kind not in _CLASSY and in_function):
        return ScopeKind.BLOCK, "", {}  # a block first in a body
    if prev in _INITIALIZER_PRECEDERS:
        return None
    if prev in _KEYWORD_SCOPES:
        return _KEYWORD_SCOPES[prev], "", {}

    if prev == ")":
        close = i - 1
        open_idx = stream.partner[close]
        if open_idx < 0:
            return ScopeKind.BLOCK, "", {}
        before = text_at(stream, open_idx - 1)
        if before in _CONTROL_SCOPES:
            return _CONTROL_SCOPES[before], "", {}
        if in_function:
            return ScopeKind.BLOCK, "", {}  # no nested functions in C/C++
        header = _function_header(stream, close)
        if header is None:
            return ScopeKind.BLOCK, "", {}
        return ScopeKind.FUNCTION, header["name"], header

    # A name (or base list) before the brace: look for a class-like head.
    head = _class_header(stream, i)
    if head is not None:
        keyword, name, header_index, name_index = head
        kind = _CLASS_KEYWORD_SCOPES.get(keyword)
        if kind is None:  # enum bodies hold no variables worth scoping
            return ScopeKind.BLOCK, "", {}
        return kind, name, {"header_index": header_index, "name_index": name_index}
    return ScopeKind.BLOCK, "", {}


def _class_header(stream: TokenStream, brace_idx: int):
    """Scan back from a ``{`` for ``class|struct|union|namespace|enum X``."""
    texts, kinds = stream.text, stream.kind
    j = brace_idx - 1
    steps = 0
    while j >= 0 and steps < 64:
        text = texts[j]
        if text in (";", "}", "{", ")", "="):
            return None
        if text in ("class", "struct", "union", "namespace", "enum"):
            named = j + 1 < brace_idx and kinds[j + 1] is TokenKind.IDENTIFIER
            return text, texts[j + 1] if named else "", j, j + 1 if named else -1
        ok = (kinds[j] in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)
              or text in (":", ",", "::", "<", ">"))
        if not ok:
            return None
        j -= 1
        steps += 1
    return None


def _function_header(stream: TokenStream, close_paren: int):
    """Resolve a ``... ) {`` prefix to a function header.

    Walks back through constructor initializer lists (``: a(x), b(y)``)
    until the real parameter list is found.  Returns None when the shape
    is not function-like.
    """
    texts, kinds = stream.text, stream.kind
    close = close_paren
    for _ in range(32):  # init lists are short; bound the walk
        open_idx = stream.partner[close]
        if open_idx <= 0:
            return None
        j = open_idx - 1
        name = None
        name_start = j
        if texts[j] == "=" and j > 0 and texts[j - 1] == "operator":
            name = "operator="
            name_start = j - 1
        elif kinds[j] is TokenKind.IDENTIFIER:
            name = texts[j]
            if j > 0 and texts[j - 1] == "~":
                name = "~" + name
                name_start = j - 1
        if name is None:
            return None
        owner_class = ""
        if name_start > 1 and texts[name_start - 1] == "::" \
                and kinds[name_start - 2] is TokenKind.IDENTIFIER:
            owner_class = texts[name_start - 2]
            name_start = name_start - 2
        if text_at(stream, name_start - 1) in (",", ":") and name_start > 1 \
                and texts[name_start - 2] == ")":
            close = name_start - 2  # initializer-list item; keep walking
            continue
        return {"name": name, "owner_class": owner_class,
                "is_virtual": _virtual_in_specifiers(stream, name_start),
                "params_open": open_idx, "params_close": close}
    return None


def _virtual_in_specifiers(stream: TokenStream, name_start: int) -> bool:
    for text in stream.text[max(name_start - 16, 0):name_start][::-1]:
        if text in (";", "}", "{", ")", ":"):
            return False
        if text == "virtual":
            return True
    return False


def _parse_parameters(stream: TokenStream, open_idx: int, close_idx: int,
                      func: ScopeNode, pointer_typedefs: Set[str]) -> None:
    """Declare each parameter of *func*; an array parameter is a pointer."""
    texts = stream.text
    params: List[SymbolEntry] = []
    for begin, end in _param_groups(stream, open_idx, close_idx):
        name_at, is_pointer, is_array, stop = _read_declarator(
            stream, begin, end, pointer_typedefs)
        entry = SymbolEntry(
            name=texts[name_at] if name_at >= 0 else f"<unnamed{len(params)}>",
            var_id=len(stream.vars),
            type_text=" ".join(texts[k] for k in range(begin, stop) if k != name_at),
            is_pointer=is_pointer or is_array,
            decl_index=name_at if name_at >= 0 else open_idx,
        )
        stream.vars.append(entry)
        params.append(entry)
        if name_at >= 0:
            func.add_symbol(entry)
    if params:
        func.params = params


def _param_groups(stream: TokenStream, open_idx: int,
                  close_idx: int) -> List[Tuple[int, int]]:
    """The parameters between two parens; ``( )`` and ``( void )`` have none."""
    return [(begin, end) for begin, end in split_top_level(stream, open_idx + 1, close_idx)
            if begin < end and not (end - begin == 1 and stream.text[begin] == "void")]


# Tokens that end a declarator: an initializer, the next declarator, the
# statement's end, a bit-field width, a body, or a bracket closing around it.
_DECLARATOR_ENDS = frozenset(["=", ",", ";", ":", "{", "}", ")", "]"])


def _read_declarator(stream: TokenStream, begin: int, end: int,
                     pointer_typedefs: Set[str],
                     specifiers: Sequence[str] = ()) -> Tuple[int, bool, bool, int]:
    """Read one declarator from *begin*, before *end* at most.

    Returns (name, pointer, array, stop): the index of the last identifier,
    ``~ X`` or ``operator X`` outside brackets, or -1, so specifiers may
    lead the range; whether a ``*``, a ``( * name )`` group or a pointer
    typedef (among *specifiers* or the other tokens) makes it a pointer;
    whether an array suffix follows the name; and the index where it ends,
    at an ``=``, ``,``, ``;``, a function's parameter list or a token no
    declarator holds.  ``[[...]]`` attributes are skipped.
    """
    texts, kinds, partner = stream.text, stream.kind, stream.partner
    name, pointer, array = -1, False, False
    i = begin
    while i < end and texts[i] not in _DECLARATOR_ENDS:
        text, close = texts[i], partner[i]
        if text in ("(", "["):
            if not i < close < end:
                break
            if text == "[":
                array = array or texts[i + 1] != "["
            elif texts[i + 1] in ("*", "&"):  # a "( * name )" group
                inner, star, suffix, _ = _read_declarator(stream, i + 1, close,
                                                          pointer_typedefs)
                name = inner if inner >= 0 else name
                pointer, array = pointer or star, array or suffix
            elif texts[i - 1] != ")":
                break  # a function's parameter list
            i = close + 1
            continue
        if text == "*":
            pointer = True
        elif text in ("~", "operator") and i + 1 < end:
            name = i
            i += 1
        elif kinds[i] is TokenKind.IDENTIFIER:
            name = i
        i += 1
    pointer = pointer or not pointer_typedefs.isdisjoint(
        [*specifiers, *(texts[k] for k in range(begin, i) if k != name)])
    return name, pointer, array, i


def split_top_level(stream: TokenStream, begin: int, end: int,
                    sep: str = ",") -> List[Tuple[int, int]]:
    """Groups within [begin, end) separated by *sep*, empty ones included.

    A separator inside brackets does not split.  The depth counts all bracket
    kinds as one, so malformed nesting such as ``( ]`` still balances.
    """
    groups: List[Tuple[int, int]] = []
    depth = 0
    start = begin
    for i, text in enumerate(stream.text[begin:end], begin):
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == sep and depth == 0:
            groups.append((start, i))
            start = i + 1
    groups.append((start, end))
    return groups


def _collect_types(stream: TokenStream, root: ScopeNode) -> None:
    """Register class/struct/union, typedef and using names up front."""
    types: Set[str] = set()
    pointer_typedefs: Set[str] = set()
    texts, kinds, partner = stream.text, stream.kind, stream.partner
    i = 0
    n = len(texts)
    while i < n:
        text = texts[i]
        if text in ("class", "struct", "union") and i + 1 < n:
            if kinds[i + 1] is TokenKind.IDENTIFIER:
                if text_at(stream, i + 2) in ("{", ":", ";"):
                    types.add(texts[i + 1])
        elif text == "typedef":  # each comma group up to the ";" names a type
            j, specifiers = i + 1, []
            while j < n:
                start = j
                name, is_pointer, _, j = _read_declarator(stream, j, n, pointer_typedefs,
                                                          specifiers)
                if text_at(stream, j) == "{" and partner[j] > j:  # the names follow a body
                    j = partner[j] + 1
                    continue
                if name < 0:
                    break
                types.add(texts[name])
                if is_pointer:
                    pointer_typedefs.add(texts[name])
                specifiers = specifiers or texts[start:name]  # the first group's
                if text_at(stream, j) != ",":
                    break
                j += 1
            i = j
        elif text == "using" and i + 2 < n and texts[i + 2] == "=":
            if kinds[i + 1] is TokenKind.IDENTIFIER:
                types.add(texts[i + 1])
                if _read_declarator(stream, i + 3, n, pointer_typedefs)[1]:
                    pointer_typedefs.add(texts[i + 1])
        i += 1
    stream.known_types = types
    root.pointer_typedefs = pointer_typedefs


_STMT_ENDERS = frozenset([";", "{", "}"])

# The words a declaration may start with, besides class and typedef names.
_DECL_STARTS = TYPE_KEYWORDS | _DECL_QUALIFIERS | _ELABORATION | {"~", "operator"}


def _scan_declarations(stream: TokenStream, root: ScopeNode,
                       innermost: List[ScopeNode]) -> None:
    texts, partner = stream.text, stream.partner
    n = len(texts)
    stmt_start = True
    i = 0
    while i < n:
        text = texts[i]
        if stmt_start and text == "[" and partner[i] > i and texts[i + 1] == "[":
            i = partner[i] + 1  # a leading "[[...]]" attribute
            continue
        if stmt_start and (text in _DECL_STARTS or text in stream.known_types):
            end = _parse_declaration(stream, i, innermost[i], root)
            if end is not None:
                i = end
                stmt_start = True
                continue
        if text in _STMT_ENDERS:
            stmt_start = True
        elif text == "(" and i > 0 and texts[i - 1] == "for":
            stmt_start = True  # for-init declarations
        elif text == ":" and i > 0 and texts[i - 1] in _ACCESS_WORDS:
            stmt_start = True
        else:
            stmt_start = False
        i += 1


def _parse_declaration(stream: TokenStream, start: int, scope: ScopeNode,
                       root: ScopeNode) -> Optional[int]:
    """Try to parse one declaration statement starting at *start*.

    Returns the index one past the terminating ``;`` on success, or None
    when the tokens do not form a variable or prototype declaration.  Its
    names reach ``stream.vars`` only on success.
    """
    texts, kinds, partner = stream.text, stream.kind, stream.partner
    n = len(texts)
    i = start
    saw_type = static_seen = virtual_seen = False
    type_tokens: List[str] = []

    while i < n:
        text = texts[i]
        if text == "static":
            static_seen = True
        elif text == "virtual":
            virtual_seen = True
        elif text in TYPE_KEYWORDS:
            saw_type = True
            type_tokens.append(text)
        elif text in stream.known_types and kinds[i] is TokenKind.IDENTIFIER:
            # Known type name, but only in type position (a use like
            # "A = b" never follows a specifier run with more specifiers).
            if text_at(stream, i + 1) in ("=", ".", "->", "(", "++", "--", "[", ")"):
                break
            saw_type = True
            type_tokens.append(text)
        elif text in _DECL_QUALIFIERS or text in _ELABORATION:
            pass
        else:
            break
        i += 1

    # Constructor prototypes carry no return type: "Name ( ... ) ;"
    # directly inside class Name.
    if not (saw_type or text_at(stream, i) in ("~", "operator")
            or (scope.kind in _CLASSY and text_at(stream, i) == scope.name
                and text_at(stream, i + 1) == "(")):
        return None

    entries: List[SymbolEntry] = []
    while True:
        begin = i
        name_at, is_pointer, _, i = _read_declarator(
            stream, i, n, root.pointer_typedefs, type_tokens)
        if name_at < 0:
            return None
        name = texts[name_at]
        if kinds[name_at] is not TokenKind.IDENTIFIER:  # "~ X" or "operator X"
            name += text_at(stream, name_at + 1)
        if text_at(stream, i) == "(":
            # Function declarator: record a prototype, declare nothing.
            close = partner[i]
            if close < 0:
                return None
            j = close + 1
            while j < n and texts[j] in ("const", "noexcept", "override"):
                j += 1
            if j < n and texts[j] == "=":  # pure virtual "= 0"
                j += 2
            if j < n and texts[j] == ";":
                cls = scope.enclosing(*_CLASSY)
                root.declared_funcs.append(DeclaredFunc(
                    name=name, arity=len(_param_groups(stream, i, close)),
                    class_name=cls.name if cls is not None else "",
                    file=stream.file, is_virtual=virtual_seen,
                    param_text=" ".join(texts[i + 1:close])))
                return j + 1
            return None

        stars = texts[begin:name_at].count("*")
        entries.append(SymbolEntry(
            name=name,
            var_id=0,  # numbered when the statement is accepted
            type_text=" ".join(type_tokens) + (" " + "*" * stars if stars else ""),
            is_pointer=is_pointer,
            is_member=scope.kind in _CLASSY and not static_seen,
            is_global_or_static=(scope.kind in (ScopeKind.GLOBAL, ScopeKind.NAMESPACE)
                                 or static_seen),
            decl_index=name_at,
        ))
        if text_at(stream, i) == "=":  # counts depth; see README.md
            depth = 0
            i += 1
            while i < n and (depth or texts[i] not in (",", ";")):
                if texts[i] in ("(", "[", "{"):
                    depth += 1
                elif texts[i] in (")", "]", "}"):
                    if depth == 0:
                        return None
                    depth -= 1
                i += 1
        if text_at(stream, i) == ";":
            for entry in entries:
                entry.var_id = len(stream.vars)
                stream.vars.append(entry)
                scope.add_symbol(entry)
            return i + 1
        if text_at(stream, i) != ",":
            return None
        i += 1


def text_at(stream: TokenStream, i: int) -> str:
    return stream.text[i] if 0 <= i < len(stream.text) else ""


def _annotate_var_ids(stream: TokenStream, root: ScopeNode) -> None:
    """Give each identifier the var id its text names where it stands.

    One source-order walk keeps, per name, a stack of the var ids visible
    there.  A scope pushes the newest declaration of each of its names
    when it opens and pops them at its end, so the innermost declaring
    scope wins, also for a use before its declaration.  A member function
    pushes its class's members first, so they lie between its own names
    and those of the scopes around it.
    """
    visible: Dict[str, List[int]] = {}
    open_scopes: List[Tuple[int, list]] = []  # (token_end, tables pushed)
    scopes = walk_scopes(root)
    upcoming = next(scopes, None)
    boundary = 0  # the next index at which a scope opens or ends
    texts, var_id = stream.text, stream.var_id
    for i, kind in enumerate(stream.kind):
        if i >= boundary:
            while open_scopes and i >= open_scopes[-1][0]:
                for table in open_scopes.pop()[1]:
                    for name in table:
                        visible[name].pop()
            while upcoming is not None and upcoming.token_begin <= i:
                cls = root.class_scopes.get(upcoming.owner_class)
                tables = ([upcoming.symbols] if cls is None
                          else [cls.symbols, upcoming.symbols])
                for table in tables:
                    for name, entries in table.items():
                        visible.setdefault(name, []).append(entries[-1].var_id)
                open_scopes.append((upcoming.token_end, tables))
                upcoming = next(scopes, None)
            boundary = open_scopes[-1][0]  # the root stays open to the end
            if upcoming is not None:
                boundary = min(boundary, upcoming.token_begin)
        if kind is TokenKind.IDENTIFIER:
            ids = visible.get(texts[i])
            if ids:
                var_id[i] = ids[-1]


# ---------------------------------------------------------------------------
# Class shape extraction
# ---------------------------------------------------------------------------

#: Body span for special members that are declared but not defined here.
_NO_BODY = (-1, -1)


def collect_class_info(root: ScopeNode, stream: TokenStream) -> List[ClassInfo]:
    """One ClassInfo per class/struct scope, in source order."""
    infos: List[ClassInfo] = []
    class_scopes = [s for s in walk_scopes(root)
                    if s.kind in (ScopeKind.CLASS, ScopeKind.STRUCT)]
    for scope in class_scopes:
        if not scope.name:
            continue
        header = scope.header_index if scope.header_index >= 0 else scope.token_begin
        info = ClassInfo(name=scope.name, line=stream.line[header])
        info.bases = _parse_bases(stream, scope)
        for entries in scope.symbols.values():
            for entry in entries:
                if entry.is_member and entry.is_pointer:
                    info.pointer_members.append(entry)
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
                info.dtor_is_virtual = info.dtor_is_virtual or func.is_virtual
            elif func.name == "operator=":
                info.assign_op = body
        for decl in root.declared_funcs:
            if decl.class_name != scope.name:
                continue
            if decl.name == "~" + scope.name:
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
        if stream.text[i] == ",":
            if current:
                bases.append(current)
            current = None
        elif stream.kind[i] is TokenKind.IDENTIFIER:
            current = stream.text[i]  # keep the last name of a qualified base
        i += 1
    if current:
        bases.append(current)
    return bases


def walk_scopes(root: ScopeNode) -> Iterator[ScopeNode]:
    """*root* and every scope under it, in pre-order (source order)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def dump_scopes(root: ScopeNode, stream: TokenStream) -> str:
    """Indented ``kind name [beginLine..endLine]`` listing."""
    lines: List[str] = []

    def line_of(index: int) -> int:
        if 0 <= index < len(stream):
            return stream.line[index]
        return stream.line[-1] if len(stream) else 1

    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        begin = 1 if node.parent is None else line_of(node.token_begin)
        end = stream.loc_count if node.parent is None else line_of(node.token_end - 1)
        name = node.name or "-"
        lines.append(f"{'  ' * depth}{node.kind.value} {name} [{begin}..{end}]")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)
