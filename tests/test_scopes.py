"""Scope trees, innermost-outward resolution, and class metadata.

The shadowing fixtures are generated with ground truth recorded at
emission time: every block declares its variables with a type unique to
its nesting depth, so the type of a resolved entry reveals which
declaration won.  A plain chain-walking resolver is the reference that
the var ids on the tokens are checked against.

``fixtures/scopes_golden.json`` pins the scope tree of every corpus file
and of ``catalog_exemplars.cc``: the ``dump_scopes`` listing, the var id
of every token, and every declaration in ``stream.vars``.  Regenerate it
(``PYTHONPATH=src python tests/test_scopes.py``) only from a commit whose
scope trees are known good.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zkleak.scopes import (
    ScopeKind,
    build_scope_tree,
    collect_class_info,
    dump_scopes,
)
from zkleak.tokens import TokenKind, tokenize

# ---------------------------------------------------------------------------
# Shadowing fixtures with recorded ground truth
# ---------------------------------------------------------------------------

_LEVEL_TYPES = ["int", "char", "float", "double", "long", "short"]


def make_shadowing_fixture(seed: int):
    """Return ``(source, uses)`` where each use is (name, line, depth|None)."""
    rng = random.Random(seed)
    lines: list = []
    uses: list = []
    stacks = {"x": [], "y": []}

    def emit(text: str) -> int:
        lines.append(text)
        return len(lines)

    def declare_some(depth: int) -> list:
        declared = []
        for name in ("x", "y"):
            if rng.random() < 0.6:
                emit(f"{_LEVEL_TYPES[depth]} {name} ;")
                stacks[name].append(depth)
                declared.append(name)
        return declared

    def use_some() -> None:
        for name in ("x", "y"):
            if rng.random() < 0.7:
                line = emit(f"{name} = 0 ;")
                depth = stacks[name][-1] if stacks[name] else None
                uses.append((name, line, depth))

    def block(depth: int) -> None:
        emit("{")
        declared = declare_some(depth)
        use_some()
        if depth < 4 and rng.random() < 0.8:
            block(depth + 1)
        use_some()
        emit("}")
        for name in declared:
            stacks[name].pop()

    declare_some(0)
    emit("void f ( )")
    block(1)
    return "\n".join(lines) + "\n", uses


def innermost_scope(root, index: int):
    node = root
    while True:
        for child in node.children:
            if child.token_begin <= index < child.token_end:
                node = child
                break
        else:
            return node


def chain_resolve(name: str, scope, class_scopes=None):
    """Reference lookup: walk parents, newest entry per scope wins.

    Given the root's ``class_scopes``, a member function also consults its
    class between its own names and those of the scopes around it.
    """
    node = scope
    while node is not None:
        entries = node.symbols.get(name)
        if entries:
            return entries[-1]
        if class_scopes and node.owner_class in class_scopes:
            entries = class_scopes[node.owner_class].symbols.get(name)
            if entries:
                return entries[-1]
        node = node.parent
    return None


def _token_at(stream, name: str, line: int):
    hits = [i for i, (text, at) in enumerate(zip(stream.text, stream.line))
            if text == name and at == line]
    assert len(hits) == 1
    return hits[0]


def test_shadowing_fixtures_resolve_to_the_innermost_declaration():
    checked_uses = 0
    for seed in range(30):
        source, uses = make_shadowing_fixture(seed)
        stream = tokenize(source, f"shadow{seed}.c")
        root = build_scope_tree(stream)
        for name, line, depth in uses:
            idx = _token_at(stream, name, line)
            scope = innermost_scope(root, idx)
            entry = chain_resolve(name, scope)
            if depth is None:
                assert entry is None
                assert stream.var_id[idx] == 0
            else:
                assert entry is not None
                assert entry.type_text.split()[0] == _LEVEL_TYPES[depth]
                assert stream.var_id[idx] == entry.var_id > 0
            checked_uses += 1
    assert checked_uses > 60


# ---------------------------------------------------------------------------
# Tree shape
# ---------------------------------------------------------------------------

_NESTING = """\
int g ;
void f ( int a ) {
  if ( a ) {
    int b ;
  }
}
"""


def test_nesting_example():
    stream = tokenize(_NESTING, "nest.c")
    root = build_scope_tree(stream)
    assert root.kind is ScopeKind.GLOBAL
    (f,) = root.children
    assert f.kind is ScopeKind.FUNCTION and f.name == "f"
    (cond,) = f.children
    assert cond.kind is ScopeKind.IF

    assert chain_resolve("g", cond).is_global_or_static
    a = chain_resolve("a", cond)
    assert a is not None and not a.is_pointer
    assert chain_resolve("b", cond) is not None
    assert chain_resolve("b", f) is None, "block-local must not leak outward"


def test_dump_scopes_layout():
    stream = tokenize(_NESTING, "nest.c")
    root = build_scope_tree(stream)
    assert dump_scopes(root, stream) == (
        "eGlobal - [1..6]\n"
        "  eFunction f [2..6]\n"
        "    eIf - [3..5]"
    )


def test_statement_scopes_by_keyword():
    source = """\
    void f ( int n ) {
      for ( int i = 0 ; i < n ; i ++ ) { }
      while ( n ) { n -- ; }
      do { n ++ ; } while ( n < 0 ) ;
      switch ( n ) { default : break ; }
      if ( n ) { } else { }
      { int inner ; }
    }
    """
    root = build_scope_tree(tokenize(source, "kinds.c"))
    (f,) = root.children
    kinds = [c.kind for c in f.children]
    assert kinds == [
        ScopeKind.FOR,
        ScopeKind.WHILE,
        ScopeKind.DO_WHILE,
        ScopeKind.SWITCH,
        ScopeKind.IF,
        ScopeKind.ELSE,
        ScopeKind.BLOCK,
    ]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

def test_pointerness_is_per_declarator():
    stream = tokenize("void f ( ) { int * a , b ; char * * p ; }", "ptr.c")
    root = build_scope_tree(stream)
    (f,) = root.children
    assert chain_resolve("a", f).is_pointer
    assert not chain_resolve("b", f).is_pointer
    assert chain_resolve("p", f).is_pointer


def test_pointer_typedef_carries_through():
    source = "typedef char * str_t ;\nvoid f ( ) { str_t s ; int t ; }\n"
    stream = tokenize(source, "td.c")
    root = build_scope_tree(stream)
    assert "str_t" in root.pointer_typedefs
    (f,) = root.children
    assert chain_resolve("s", f).is_pointer
    assert not chain_resolve("t", f).is_pointer


def test_parameters_resolve_with_pointerness():
    stream = tokenize("void f ( char * buf , int n ) { buf = 0 ; }", "par.c")
    root = build_scope_tree(stream)
    (f,) = root.children
    assert [p.name for p in f.params] == ["buf", "n"]
    assert chain_resolve("buf", f).is_pointer
    assert not chain_resolve("n", f).is_pointer


def test_array_and_pointer_typedef_parameters_are_pointers():
    source = ("typedef char * str ;\n"
              "void f ( char buf [ SIZE ] , str s , int v [ ] , int ( * m ) [ 4 ] ,"
              " int n , [ [ maybe_unused ] ] int k , int j [ [ maybe_unused ] ] ) { }\n")
    stream = tokenize(source, "arr.c")
    root = build_scope_tree(stream)
    (f,) = root.children
    assert [(p.name, p.is_pointer) for p in f.params] == [
        ("buf", True), ("s", True), ("v", True), ("m", True), ("n", False),
        ("k", False), ("j", False)]
    assert f.params[0].type_text == "char [ SIZE ]"
    assert [stream.var_id[i] for i, text in enumerate(stream.text)
            if text == "SIZE"] == [0]


@pytest.mark.parametrize("source, declared", [
    # an array local, unlike an array parameter, is not a pointer
    ("void f ( ) { char * p [ [ maybe_unused ] ] , q [ 4 ] ; }",
     [("p", True), ("q", False)]),
    ("void f ( ) { [ [ maybe_unused ] ] char * p ; p = 0 ; }", [("p", True)]),
    ("void f ( ) { void ( * fp ) ( char * ) ; }", [("fp", True)]),
    ("void call ( void ( * cb ) ( char * q ) , char * r ) { }",
     [("cb", True), ("r", True)]),
    # a function-pointer typedef, and a typedef of it, are pointer typedefs
    ("typedef void ( * fn_t ) ( char * ) ; typedef fn_t fn ; void f ( fn cb ) { }",
     [("cb", True)]),
    # every comma group of a typedef names a type, a pointer one by its own group
    ("typedef struct _F { int a ; } F , * PF ; void f ( PF p , F q ) { }",
     [("p", True), ("q", False), ("a", False)]),
    ("typedef char * str , * * pstr , c ; void f ( str a , pstr b , c d ) { }",
     [("a", True), ("b", True), ("d", False)]),
    # a header or a bit-field that fails to parse leaves no entry behind
    ("class K { char * op ( int n ) ; } ;\n"
     "char * K :: op ( int n ) { return 0 ; }", [("n", False)]),
    ("struct S { unsigned flags : 3 ; char * p ; } ;", [("p", True)]),
])
def test_one_reader_names_each_declarator(source, declared):
    stream = tokenize(source, "decl.cc")
    build_scope_tree(stream)
    assert [(e.name, e.is_pointer) for e in stream.vars[1:]] == declared


def test_a_block_first_in_a_body_opens_a_scope():
    stream = tokenize("void f ( char * a ) { { char * a ; a = 0 ; } a = 0 ; }",
                      "blk.c")
    root = build_scope_tree(stream)
    (f,) = root.children
    (block,) = f.children
    assert block.kind is ScopeKind.BLOCK
    param, local = f.params[0], block.symbols["a"][0]
    assert [stream.var_id[i] for i in range(f.token_begin, f.token_end)
            if stream.text[i] == "a"] == [local.var_id, local.var_id, param.var_id]
    assert stream.var(param.var_id) is param
    assert stream.var(local.var_id) is local


def test_globals_and_statics_are_flagged():
    source = "char * g ;\nvoid f ( ) { static int hits ; int local ; }\n"
    root = build_scope_tree(tokenize(source, "st.c"))
    (f,) = root.children
    assert chain_resolve("g", f).is_global_or_static
    assert chain_resolve("hits", f).is_global_or_static
    assert not chain_resolve("local", f).is_global_or_static


# ---------------------------------------------------------------------------
# Class metadata
# ---------------------------------------------------------------------------

_CLASSES = """\
class Plain {
public:
  Plain();
  ~Plain() {}
  char *buf;
  int n;
};

class Owner {
public:
  Owner() { buf = new char[8]; }
  Owner(const Owner &other) { buf = new char[8]; }
  Owner &operator=(const Owner &other) { return *this; }
  ~Owner() { delete [] buf; }
  char *buf;
};

class Declared {
public:
  Declared(const Declared &other);
  Declared &operator=(const Declared &other);
  char *p;
};

class VirtualBase {
public:
  virtual ~VirtualBase() {}
};

class Derived : public VirtualBase, private Plain {
public:
  int x;
};

struct TwoCtors {
  TwoCtors() {}
  TwoCtors(int n) {}
  ~TwoCtors();
};
"""


def _class_infos():
    stream = tokenize(_CLASSES, "classes.cc")
    root = build_scope_tree(stream)
    return {info.name: info for info in collect_class_info(root, stream)}


def _is_real_body(span) -> bool:
    return span is not None and 0 <= span[0] < span[1]


def test_class_member_lists():
    infos = _class_infos()
    assert [m.name for m in infos["Plain"].pointer_members] == ["buf"]
    assert infos["Derived"].pointer_members == []


def test_an_attribute_before_a_member_keeps_it_a_pointer_member():
    stream = tokenize("struct S { [[deprecated]] char *n; int k; char *m; };", "attr.cc")
    (info,) = collect_class_info(build_scope_tree(stream), stream)
    assert [m.name for m in info.pointer_members] == ["n", "m"]


def test_special_member_manifest():
    infos = _class_infos()

    plain = infos["Plain"]
    assert _is_real_body(plain.dtor)
    assert not plain.dtor_is_virtual
    assert plain.copy_ctor is None and plain.assign_op is None

    owner = infos["Owner"]
    assert len(owner.ctors) == 2
    assert _is_real_body(owner.copy_ctor)
    assert _is_real_body(owner.assign_op)
    assert _is_real_body(owner.dtor)

    declared = infos["Declared"]
    assert declared.copy_ctor is not None and not _is_real_body(declared.copy_ctor)
    assert declared.assign_op is not None and not _is_real_body(declared.assign_op)
    assert declared.ctors == [] and declared.dtor is None

    assert infos["VirtualBase"].dtor_is_virtual

    two = infos["TwoCtors"]
    assert len(two.ctors) == 2
    assert two.dtor is None


def test_base_classes_in_order():
    infos = _class_infos()
    assert infos["Derived"].bases == ["VirtualBase", "Plain"]
    assert infos["Plain"].bases == []


def test_out_of_line_member_sees_fields():
    source = """\
    class K {
    public:
      char *p;
      void m();
    };
    void K::m() { p = 0; }
    """
    stream = tokenize(source, "k.cc")
    root = build_scope_tree(stream)
    m = next(s for s in root.function_scopes
             if s.name == "m" and s.owner_class == "K")
    (use,) = [i for i in range(m.token_begin, m.token_end)
              if stream.text[i] == "p"]
    entry = stream.var(stream.var_id[use])
    assert entry is not None and entry.is_member
    assert entry is root.class_scopes["K"].symbols["p"][-1]


_MEMBERS = """\
char * g ;
int n ;
class K {
public:
  char * p ;
  void inl ( ) { p = g ; int n ; n = 1 ; { char * p ; p = 0 ; } }
  void m ( char * g ) ;
  int n ;
};
class K { char * q ; } ;
void K :: m ( char * g ) { p = g ; q = 0 ; n = 0 ; late = 0 ; int late ; }
void free_fn ( ) { p = g ; n = 0 ; r = 0 ; char * r ; int r ; r = 0 ; }
struct S { void s ( ) { if ( n ) { g = 0 ; } } int n ; } ;
"""


def test_every_identifier_takes_the_chain_walks_answer():
    # Inline and out-of-line members, a repeated class name (the first
    # class of that name is the one consulted), shadowing parameters and
    # blocks, a use before its declaration and a name declared twice in
    # one scope (the newest declaration wins).
    stream = tokenize(_MEMBERS, "members.cc")
    root = build_scope_tree(stream)
    named = 0
    for i, kind in enumerate(stream.kind):
        if kind is not TokenKind.IDENTIFIER:
            continue
        entry = chain_resolve(stream.text[i], innermost_scope(root, i),
                              root.class_scopes)
        assert stream.var_id[i] == (entry.var_id if entry else 0), (stream.text[i], i)
        named += entry is not None
    assert named > 20


# ---------------------------------------------------------------------------
# Robustness on arbitrary token soup
# ---------------------------------------------------------------------------

_SOUP = [
    "a", "b", "int", "char", "class", "if", "while", "for", "return",
    "0", "1", "=", ";", ",", "*", "(", ")", "{", "}", "[", "]", ":",
    "void", "new", "delete", "~", "#",
]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_scope_tree_survives_token_soup(seed):
    rng = random.Random(seed)
    source = " ".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 120)))
    stream = tokenize(source, "soup.c")
    root = build_scope_tree(stream)
    assert root.kind is ScopeKind.GLOBAL

    def check(node, lo: int, hi: int) -> None:
        assert 0 <= lo <= node.token_begin <= node.token_end <= hi
        inner_lo = node.token_begin
        for child in node.children:
            check(child, inner_lo, node.token_end)
            inner_lo = child.token_end

    for child in root.children:
        check(child, 0, len(stream))
    assert stream.scoped
    for i, kind in enumerate(stream.kind):
        if kind is TokenKind.IDENTIFIER:
            entry = chain_resolve(stream.text[i], innermost_scope(root, i),
                                  root.class_scopes)
            assert stream.var_id[i] == (entry.var_id if entry else 0), (stream.text[i], i)


# ---------------------------------------------------------------------------
# Footprint
# ---------------------------------------------------------------------------

def _retained_scope_tree(lines: int):
    """The tree of a function with *lines* one-line ``if`` bodies, and the
    bytes ``build_scope_tree`` leaves allocated on return."""
    body = "if ( a ) { r = 1 ; }\n" * lines
    stream = tokenize(f"void f ( int a ) {{ int r ;\n{body}}}\n", "ifs.c")
    gc.collect()
    tracemalloc.start()
    try:
        root = build_scope_tree(stream)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return root, retained


def test_an_empty_control_body_costs_at_most_300_bytes():
    """Each added ``if ( a ) { r = 1 ; }`` line keeps one scope alive,
    plus its ten tokens' bracket partners.  The body declares nothing and
    holds no scope, so it owns no container and no ``__dict__``."""
    _retained_scope_tree(100)  # one-time allocations
    _, small = _retained_scope_tree(500)
    root, large = _retained_scope_tree(2500)
    assert (large - small) / 2000 <= 300
    (f,) = root.children
    assert len(f.children) == 2500
    first = f.children[0]
    assert first.kind is ScopeKind.IF
    assert not first.children and not first.symbols and not first.params
    for body in f.children:
        assert body.children is first.children
        assert body.symbols is first.symbols
        assert body.params is first.params
        assert not hasattr(body, "__dict__")
    assert not hasattr(f.params[0], "__dict__")
    with pytest.raises(TypeError):
        first.symbols["r"] = []


# ---------------------------------------------------------------------------
# Golden scope trees
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
SCOPE_GOLDEN = FIXTURES / "scopes_golden.json"


def scope_golden_inputs() -> list:
    """(name, source): every corpus file, then the catalog exemplars."""
    paths = sorted((FIXTURES / "corpus").iterdir())
    paths.append(FIXTURES / "catalog_exemplars.cc")
    return [(p.relative_to(FIXTURES).as_posix(), p.read_text(encoding="utf-8"))
            for p in paths]


def _scope_case(name: str, source: str) -> dict:
    stream = tokenize(source, name)
    root = build_scope_tree(stream)
    return {
        "input": name,
        "scopes": dump_scopes(root, stream).split("\n"),
        "var_id": list(stream.var_id),
        "vars": [[e.name, e.type_text, e.is_pointer, e.is_member,
                  e.is_global_or_static, e.decl_index] for e in stream.vars[1:]],
    }


def test_scope_trees_match_the_golden_file():
    golden = json.loads(SCOPE_GOLDEN.read_text(encoding="utf-8"))
    cases = [_scope_case(name, source) for name, source in scope_golden_inputs()]
    assert [c["input"] for c in golden] == [c["input"] for c in cases]
    assert sum(len(c["vars"]) for c in cases) > 100
    for want, got in zip(golden, cases):
        assert got == want, want["input"]


def write_scope_golden() -> int:
    cases = [_scope_case(name, source) for name, source in scope_golden_inputs()]
    SCOPE_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n",
                            encoding="utf-8")
    return len(cases)


if __name__ == "__main__":
    print(f"wrote {write_scope_golden()} cases to {SCOPE_GOLDEN}")
