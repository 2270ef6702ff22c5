"""Control-flow plans, the call graph, and ring detection.

The CFG of a function is its structure plan: nested sequences, branches
and loops whose leaves are statement nodes.  The manifest below was
annotated by hand from the construction rules: one statement node per
simple statement, a branch node per conditional or switch, a head node
per loop with the body nested under it, and a `for` increment as the
loop's trailer.  ``fixtures/plan_golden.json`` pins the plan of every
function in the corpus, the manifest, the scaling inputs and the
bracket-damaged files.  Ring detection is checked against exhaustive
simple-cycle enumeration on random digraphs.

Regenerate the golden file only from a commit whose plans are known
good:

    PYTHONPATH=src python tests/test_graphs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from zkleak.graphs import (
    MAX_NESTING,
    FcgEdge,
    Fcg,
    FuncId,
    PlanItem,
    build_cfg,
    build_fcg,
    dump_cfg,
    dump_fcg,
    find_rings,
)
from zkleak.report import run
from zkleak.scopes import build_scope_tree
from zkleak.tokens import TokenKind, tokenize

from differential import generate

FIXTURES = Path(__file__).parent / "fixtures"
PLAN_GOLDEN = FIXTURES / "plan_golden.json"


def _unit(source: str, name: str):
    stream = tokenize(source, name)
    return build_scope_tree(stream), stream


def _cfg(source: str, name: str = "cfg.c", which: int = 0):
    root, stream = _unit(source, name)
    return build_cfg(root.function_scopes[which], stream)


# ---------------------------------------------------------------------------
# Plan shapes
# ---------------------------------------------------------------------------

_LEAVES = {"seq": "s", "return": "ret", "break": "brk", "continue": "cont"}
_LOOPS = ("while", "for", "dowhile")


def _shape(items: list) -> list:
    """The plan with node ids dropped: leaves by kind, an if as
    ("if", then, else), a loop as (style, body[, trailer]) and a switch as
    ("switch", {tag: arm})."""
    out = []
    for item in items:
        if item.kind in _LEAVES:
            out.append(_LEAVES[item.kind])
        elif item.kind == "if":
            (_, then), (_, other) = item.arms
            out.append(("if", _shape(then), _shape(other)))
        elif item.kind in _LOOPS:
            arms = dict(item.arms)
            trailer = (_shape(arms["trailer"]),) if arms.get("trailer") else ()
            out.append((item.kind, _shape(arms["body"])) + trailer)
        else:
            out.append(("switch", {tag: _shape(arm) for tag, arm in item.arms}))
    return out


# (source, plan shape)
_CFG_MANIFEST = [
    ("void f ( ) { }", []),
    ("void f ( ) { int a ; }", ["s"]),
    ("void f ( ) { int a ; a = 1 ; a = 2 ; }", ["s", "s", "s"]),
    ("void f ( int c ) { if ( c ) { c = 1 ; } c = 2 ; }", [("if", ["s"], []), "s"]),
    ("void f ( int c ) { if ( c ) { c = 1 ; } else { c = 2 ; } }", [("if", ["s"], ["s"])]),
    ("void f ( int c ) { if ( c ) { } else { } }", [("if", [], [])]),
    ("void f ( int c ) { if ( c ) { if ( c ) { c = 1 ; } } }",
     [("if", [("if", ["s"], [])], [])]),
    ("void f ( int c ) { if ( c ) { c = 1 ; } else if ( c ) { c = 2 ; } else { c = 3 ; } }",
     [("if", ["s"], [("if", ["s"], ["s"])])]),
    ("void f ( int c ) { while ( c ) { c -- ; } }", [("while", ["s"])]),
    ("void f ( int c ) { do { c -- ; } while ( c ) ; }", [("dowhile", ["s"])]),
    ("void f ( ) { for ( int i = 0 ; i < 3 ; i ++ ) { i = i ; } }",
     ["s", ("for", ["s"], ["s"])]),
    ("void f ( int c ) { while ( c ) { c -- ; } while ( c ) { c ++ ; } }",
     [("while", ["s"]), ("while", ["s"])]),
    ("void f ( int c ) { while ( c ) { if ( c ) { c = 1 ; } else { c = 2 ; } } }",
     [("while", [("if", ["s"], ["s"])])]),
    ("void f ( int c ) { while ( c ) { if ( c ) { break ; } c -- ; } }",
     [("while", [("if", ["brk"], []), "s"])]),
    ("void f ( int c ) { while ( c ) { if ( c ) { continue ; } c -- ; } }",
     [("while", [("if", ["cont"], []), "s"])]),
    ("void f ( int c ) { switch ( c ) { case 1 : c = 0 ; break ; default : c = 9 ; } }",
     [("switch", {"case:1": ["s", "brk"], "default": ["s"]})]),
    ("void f ( int c ) { switch ( c ) { case 1 : c = 0 ; break ; case 2 : c = 5 ; break ; } }",
     [("switch", {"case:1": ["s", "brk"], "case:2": ["s", "brk"]})]),
    ("void f ( int c ) { if ( c ) { return ; } c = 1 ; }", [("if", ["ret"], []), "s"]),
    ("int f ( int c ) { c = 1 ; return c ; }", ["s", "ret"]),
    ("int f ( ) { return 0 ; int a ; }", ["ret", "s"]),
]


def test_manifest_plan_shapes():
    assert len(_CFG_MANIFEST) == 20
    for source, shape in _CFG_MANIFEST:
        assert _shape(_cfg(source).structure) == shape, source


def _plan_nodes(items: list):
    """(node id, is a guard) for every node the plan names, in plan order."""
    work = list(reversed(items))
    while work:
        item = work.pop()
        if item.kind in _LEAVES:
            yield item.node, False
        else:
            yield item.node, True
            work.extend(reversed([x for _tag, arm in item.arms for x in arm]))


def _assert_plan_invariants(cfg) -> None:
    stream, scope = cfg.stream, cfg.func_scope
    named = list(_plan_nodes(cfg.structure))
    assert sorted(node for node, _guard in named) == list(range(len(cfg.nodes)))
    assert [node.id for node in cfg.nodes] == list(range(len(cfg.nodes)))
    spans = sorted(node.span for node in cfg.nodes)
    assert all(scope.token_begin < lo <= hi <= scope.token_end - 1 for lo, hi in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:])), spans
    for node_id, is_guard in named:
        node = cfg.nodes[node_id]
        text = " ".join(stream.text[slice(*node.span)])
        if not is_guard:
            assert node.guard_text == ""
        elif node.guard_text.startswith("catch "):
            assert node.guard_text == "catch " + text
        else:
            assert node.guard_text == text


def test_manifest_structural_invariants(corpus_paths):
    for source, _shape_ in _CFG_MANIFEST:
        stream = tokenize(source, "inv.c")
        cfg = build_cfg(build_scope_tree(stream).function_scopes[0], stream)
        _assert_plan_invariants(cfg)
        assert not any(d.code == "MalformedControlFlow" for d in stream.diagnostics)
    for path in corpus_paths:
        root, stream = _unit(path.read_text(encoding="utf-8"), path.name)
        for scope in root.function_scopes:
            _assert_plan_invariants(build_cfg(scope, stream))


def test_every_identifier_of_a_body_lies_in_exactly_one_node():
    # A token outside every node is never matched for events, and one in
    # two nodes is matched twice.  Labels are the only identifiers that
    # belong to no statement.
    for index in range(300):
        name, source = generate(9, index)
        root, stream = _unit(source, name)
        for scope in root.function_scopes:
            cfg = build_cfg(scope, stream)
            covers = [0] * len(stream)
            for node in cfg.nodes:
                for k in range(*node.span):
                    covers[k] += 1
            in_label = False
            for k in range(scope.token_begin + 1, scope.token_end - 1):
                text = stream.text[k]
                in_label = text == "case" or (in_label and text != ":")
                if stream.kind[k] is TokenKind.IDENTIFIER and not in_label:
                    assert covers[k] == 1, (index, scope.name, stream.line[k], text)


def test_straight_line_shape():
    cfg = _cfg("void f ( ) {\n int a ;\n a = 1 ;\n a = 2 ;\n}")
    assert cfg.structure == [PlanItem("seq", 0), PlanItem("seq", 1), PlanItem("seq", 2)]
    assert [(n.span, n.line) for n in cfg.nodes] == [((5, 8), 2), ((8, 12), 3),
                                                      ((12, 16), 4)]
    assert (cfg.entry_line, cfg.exit_line) == (1, 5)


def test_if_else_shape_and_guard():
    cfg = _cfg("void f ( int c ) { if ( c < 3 ) { c = 1 ; } else { c = 2 ; } }")
    assert dump_cfg(cfg) == (
        "Entry 1\n"
        "1 If (c < 3)\n"
        "  then:\n"
        "    1 Statement\n"
        "  else:\n"
        "    1 Statement\n"
        "Exit 1"
    )
    assert cfg.node(0).guard_text == "c < 3"
    # A catch forks like an if with an empty else arm.
    cfg = _cfg("void f ( ) {\n try { g ( ) ; }\n catch ( E e ) { h ( ) ; }\n}")
    assert cfg.structure == [PlanItem("seq", 0), PlanItem(
        "if", 1, [("then", [PlanItem("seq", 2)]), ("else", [])])]
    assert [(n.span, n.line, n.guard_text) for n in cfg.nodes] == [
        ((7, 11), 2, ""), ((14, 16), 3, "catch E e"), ((18, 22), 3, "")]


def test_loop_body_is_nested_under_its_head():
    cfg = _cfg("void f ( int c ) { while ( c ) { c -- ; } }")
    assert cfg.structure == [PlanItem("while", 0, [("body", [PlanItem("seq", 1)])])]
    assert cfg.node(0).guard_text == "c"
    cfg = _cfg("void f ( ) {\n for ( int i = 0 ; i < 3 ; i ++ ) {\n  i = i ;\n }\n}")
    assert cfg.structure == [PlanItem("seq", 0), PlanItem("for", 1, [
        ("body", [PlanItem("seq", 2)]), ("trailer", [PlanItem("seq", 3)])])]
    assert dump_cfg(cfg) == (
        "Entry 1\n"
        "2 Statement\n"
        "2 Loop for (i < 3)\n"
        "  body:\n"
        "    3 Statement\n"
        "  trailer:\n"
        "    2 Statement\n"
        "Exit 5"
    )


def test_statements_after_a_do_while_follow_it():
    # The do statement ends at the ";" after its guard, not at the end of
    # its body, so the statements after it keep their own plan items.
    cfg = _cfg("void f ( int n ) { do { n -- ; } while ( n ) ; "
               "if ( n ) { n = 1 ; } n = 2 ; }")
    assert _shape(cfg.structure) == [("dowhile", ["s"]), ("if", ["s"], []), "s"]
    assert cfg.node(cfg.structure[0].node).guard_text == "n"


def test_a_do_with_no_while_ends_with_its_body():
    # Malformed input: with no "while" after the body, the statement after
    # the body is not swallowed into the do statement.
    cfg = _cfg("void f ( int n ) { do { n -- ; } n = 2 ; }")
    assert _shape(cfg.structure) == [("dowhile", ["s"]), "s"]


def test_a_statement_missing_its_semicolon_ends_at_the_closing_brace():
    # Malformed input: "n = 1" lacks its ";", so its node ends at the "}"
    # of the then block and the statement after the if keeps its own node.
    cfg = _cfg("void f ( int n ) { if ( n ) { n = 1 } free ( n ) ; }")
    assert _shape(cfg.structure) == [("if", ["s"], []), "s"]
    (then,) = cfg.structure[0].arms[0][1]
    stream = cfg.stream
    assert stream.text[slice(*cfg.node(then.node).span)] == ["n", "=", "1"]


def test_a_label_in_a_bare_block_of_a_switch_body_opens_an_arm():
    cfg = _cfg("void f ( int c ) { switch ( c ) { { case 1 : c = 0 ; } "
               "c = 1 ; { { default : c = 2 ; } } } }")
    assert _shape(cfg.structure) == [
        ("switch", {"case:1": ["s", "s"], "default": ["s"]})]
    # A block after a label is still one statement of that arm.
    cfg = _cfg("void f ( int c ) { switch ( c ) { case 1 : { c = 0 ; } } }")
    assert _shape(cfg.structure) == [("switch", {"case:1": ["s"]})]


def test_return_in_the_then_arm_and_the_exit_line():
    cfg = _cfg("void f ( int c ) {\n if ( c ) { return ; }\n c = 1 ;\n}")
    assert cfg.structure == [PlanItem("if", 0, [("then", [PlanItem("return", 1)]),
                                                ("else", [])]),
                             PlanItem("seq", 2)]
    assert [n.line for n in cfg.nodes] == [2, 2, 3]
    assert (cfg.entry_line, cfg.exit_line) == (1, 4)
    # An unclosed body runs to the last token, which gives the exit line.
    cfg = _cfg("int g ;\nvoid f ( ) {\n return ;")
    assert cfg.structure == [PlanItem("return", 0)]
    assert (cfg.entry_line, cfg.exit_line) == (2, 3)


def test_goto_degrades_to_a_chain():
    source = "void f ( int c ) { if ( c ) goto out ; c = 1 ; out : ; }"
    stream = tokenize(source, "g.c")
    root = build_scope_tree(stream)
    cfg = build_cfg(root.function_scopes[0], stream)
    assert _shape(cfg.structure) == ["s"] * 4
    assert all(item.kind == "seq" for item in cfg.structure)
    assert any(d.code == "MalformedControlFlow" for d in stream.diagnostics)


# The function body is not a statement, so the innermost statement of an
# ``if`` plus k blocks sits at depth k + 2, and of k nested switches at
# depth k + 1.  The builder spends two frames per level on either, so at
# the bound its Python stack is about twice MAX_NESTING frames deep.
_AT_THE_BOUND = {
    "blocks": ("if ( n ) " + "{ " * (MAX_NESTING - 2) + "free ( p ) ; "
               + "} " * (MAX_NESTING - 2)),
    "switch": ("switch ( n ) { case 1 : " * (MAX_NESTING - 1) + "free ( p ) ; "
               + "} " * (MAX_NESTING - 1)),
}


def test_nesting_at_the_bound_keeps_its_path_verdict():
    for name, body in _AT_THE_BOUND.items():
        source = "void f ( int n ) { char * p ; p = malloc ( 4 ) ; " + body + "}\n"
        report = run([("deep.c", source)])
        assert [d.kind.value for d in report.defects] == ["PathMissingRelease"], name
        assert not report.units[0].stream.diagnostics, name


def test_nesting_past_the_bound_degrades_to_a_chain():
    source = ("void f ( int n ) { char * p ; p = malloc ( 4 ) ; "
              + "{ " * MAX_NESTING + "free ( p ) ; " + "} " * MAX_NESTING + "}\n")
    stream = tokenize(source, "deep.c")
    cfg = build_cfg(build_scope_tree(stream).function_scopes[0], stream)
    assert _shape(cfg.structure) == ["s"] * 3
    (diag,) = stream.diagnostics
    assert diag.code == "MalformedControlFlow"
    assert f"deeper than {MAX_NESTING} levels" in diag.message
    # On the chain the free is unconditional, so the block is released.
    assert run([("deep.c", source)]).defects == []


# ---------------------------------------------------------------------------
# Golden plans
# ---------------------------------------------------------------------------

def _row(cfg, node_id: int, guard: bool = False) -> list:
    node = cfg.nodes[node_id]
    return [node.span[0], node.span[1], node.line] + ([node.guard_text] if guard else [])


def _golden_plan(cfg, items: list) -> list:
    """The plan with each node written as [span begin, span end, line] and
    a guard node's text appended."""
    out: list = []
    for item in items:
        if item.kind in _LEAVES:
            out.append([_LEAVES[item.kind], _row(cfg, item.node)])
        elif item.kind == "if":
            out.append(["if", _row(cfg, item.node, True),
                        [[tag, _golden_plan(cfg, arm)] for tag, arm in item.arms]])
        elif item.kind in _LOOPS:
            arms = dict(item.arms)
            out.append(["loop", item.kind, _row(cfg, item.node, True),
                        _golden_plan(cfg, arms["body"]),
                        _golden_plan(cfg, arms.get("trailer", []))])
        else:
            has_default = any(tag == "default" for tag, _arm in item.arms)
            out.append(["switch", _row(cfg, item.node, True), has_default,
                        [[tag, _golden_plan(cfg, arm)] for tag, arm in item.arms]])
    return out


def plan_inputs() -> list:
    """(name, source): the corpus, the manifest, the scaling inputs at
    N = 250 and the bracket-damaged files."""
    from test_brackets import CORPUS, mutated_cases
    from test_scaling import many_calls, nested_templates, open_prototypes

    cases = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(CORPUS.iterdir())]
    cases += [(f"manifest{k}.c", entry[0]) for k, entry in enumerate(_CFG_MANIFEST)]
    cases += [(f"{make.__name__}.cc", make(250))
              for make in (nested_templates, many_calls, open_prototypes)]
    return cases + mutated_cases()


def _golden_case(name: str, source: str) -> dict:
    root, stream = _unit(source, name)
    functions = []
    for scope in root.function_scopes:
        cfg = build_cfg(scope, stream)
        functions.append({"func": scope.name, "entry": cfg.entry_line,
                          "exit": cfg.exit_line,
                          "plan": _golden_plan(cfg, cfg.structure)})
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    return {"input": name, "sha256": digest, "functions": functions}


def test_plans_match_the_golden_file():
    golden = json.loads(PLAN_GOLDEN.read_text(encoding="utf-8"))
    cases = [_golden_case(name, source) for name, source in plan_inputs()]
    assert [(c["input"], c["sha256"]) for c in golden] == \
        [(c["input"], c["sha256"]) for c in cases]
    assert sum(len(c["functions"]) for c in cases) > 200
    for want, got in zip(golden, cases):
        assert got == want, want["input"]


def write_plan_golden() -> int:
    cases = [_golden_case(name, source) for name, source in plan_inputs()]
    PLAN_GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n",
                           encoding="utf-8")
    return len(cases)


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------

def _edge_set(fcg):
    return {(e.caller.func_name, e.caller.class_name,
             e.callee.func_name, e.callee.class_name, e.callee.arity)
            for e in fcg.edges}


def test_overloads_resolve_by_arity():
    fcg = build_fcg([_unit(
        "void g ( int a ) { }\n"
        "void g ( int a , int b ) { }\n"
        "void f ( ) { g ( 1 , 2 ) ; g ( 1 ) ; }\n", "ov.c")])
    assert _edge_set(fcg) == {
        ("f", "", "g", "", 2),
        ("f", "", "g", "", 1),
    }
    assert all(e.callee in fcg.defined for e in fcg.edges)


def test_method_calls_resolve_through_the_receiver():
    fcg = build_fcg([_unit(
        "class A { public: void m ( ) { } static void s ( ) { } A ( ) { } } ;\n"
        "void f ( ) { A a ; a . m ( ) ; A :: s ( ) ; A * p ; p = new A ( ) ; }\n",
        "meth.cc")])
    assert _edge_set(fcg) == {
        ("f", "", "m", "A", 0),
        ("f", "", "s", "A", 0),
        ("f", "", "A", "A", 0),
    }


def test_a_block_first_in_a_body_shadows_only_inside_it():
    fcg = build_fcg([_unit(
        "class A { public: void m ( ) { } } ;\n"
        "class B { public: void m ( ) { } } ;\n"
        "void h ( A * o ) { { B * o ; o -> m ( ) ; } o -> m ( ) ; }\n",
        "blk.cc")])
    assert [(e.caller.func_name, e.callee.class_name, e.site_line)
            for e in fcg.edges] == [("h", "B", 3), ("h", "A", 3)]


def test_receivers_resolve_to_their_declarations():
    fcg = build_fcg([_unit(
        "class A { public: void m ( ) { } } ;\n"
        "class B { public: void m ( ) { } } ;\n"
        "class C { public: A * part ; void run ( ) { part -> m ( ) ; } } ;\n"
        "void p ( B * b ) { b -> m ( ) ; }\n"
        "void s ( A * o ) { int n ; { B * o ; o -> m ( ) ; } o -> m ( ) ; }\n",
        "recv.cc")])
    assert [(e.caller.func_name, e.callee.class_name, e.site_line)
            for e in fcg.edges] == [("run", "A", 3), ("p", "B", 4),
                                    ("s", "B", 5), ("s", "A", 5)]


def test_unknown_callees_become_external():
    fcg = build_fcg([_unit("void f ( ) { helper ( 1 ) ; malloc ( 4 ) ; }", "u.c")])
    # Edges still exist so summary lookups can intercept known wrappers.
    assert {e.callee.func_name for e in fcg.edges} == {"helper", "malloc"}
    assert all(e.callee not in fcg.defined and e.callee.file_name == ""
               for e in fcg.edges)


def test_cross_file_tie_prefers_the_callers_file():
    unit_a = _unit("void g ( ) { }\nvoid f ( ) { g ( ) ; }", "a.c")
    unit_b = _unit("void g ( ) { }", "b.c")
    fcg = build_fcg([unit_a, unit_b])
    (edge,) = fcg.edges
    assert edge.callee.file_name == "a.c"
    (warning,) = fcg.warnings
    assert warning.kind.value == "AmbiguousCallWarning"


def test_a_call_to_same_id_twins_is_not_ambiguous():
    root, stream = _unit("#ifdef A\nvoid f ( int n ) { }\n#else\n"
                         "void f ( int n ) { }\n#endif\n"
                         "void c ( ) { f ( 1 ) ; }\n", "t.c")
    fcg = build_fcg([(root, stream)])
    assert fcg.warnings == []
    (edge,) = fcg.edges
    assert fcg.defined[edge.callee] is root.function_scopes[1], \
        "the last body is kept"


def test_call_sites_carry_token_positions():
    root, stream = _unit("void g ( ) { }\nvoid f ( ) { g ( ) ; }", "pos.c")
    fcg = build_fcg([(root, stream)])
    (edge,) = fcg.edges
    assert stream.text[edge.site_index] == "g"
    assert edge.site_line == 2
    caller = edge.caller
    assert fcg.call_sites(caller) == {edge.site_index: edge.callee}


def _assert_index_matches_edges(fcg):
    assert fcg.defined
    for fid in fcg.defined:
        brute = {e.site_index: e.callee for e in fcg.edges if e.caller == fid}
        assert list(fcg.call_sites(fid).items()) == list(brute.items()), fid
    assert fcg.call_sites(FuncId("nowhere.c", "", "nope", 0)) == {}


def test_call_site_index_matches_the_edges_on_the_corpus(corpus_paths):
    fcg = build_fcg([_unit(path.read_text(), str(path)) for path in corpus_paths])
    assert len(corpus_paths) == 40 and fcg.edges
    _assert_index_matches_edges(fcg)


def test_call_site_index_matches_the_edges_on_the_summary_blueprint():
    from test_acceptance import _blueprint  # deferred: it imports this module

    for seed in range(60):
        call_form, _inline_form, _expected = _blueprint(seed)
        _assert_index_matches_edges(build_fcg([_unit(call_form, f"bp{seed}.c")]))


class _UnreadableEdges(list):
    def __iter__(self):
        raise AssertionError("the edge list was scanned")


def test_call_sites_is_a_lookup_not_an_edge_scan():
    fcg = build_fcg([_unit(
        "void g ( ) { }\nvoid f ( ) { g ( ) ; h ( ) ; g ( ) ; }", "idx.c")])
    caller = fcg.edges[0].caller
    expected = {e.site_index: e.callee for e in fcg.edges}
    fcg.edges = _UnreadableEdges(fcg.edges)
    assert fcg.call_sites(caller) == expected


def test_dump_fcg_is_sorted_and_renders_ids():
    fcg = build_fcg([_unit(
        "void g ( ) { }\nvoid h ( ) { }\nvoid f ( ) { h ( ) ; g ( ) ; }", "d.c")])
    text = dump_fcg(fcg)
    assert text.splitlines() == [
        "d.c::::f/0 -> d.c::::g/0 @d.c:3",
        "d.c::::f/0 -> d.c::::h/0 @d.c:3",
    ]


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def test_ring_examples():
    fcg = build_fcg([_unit(
        "void b ( ) ;\n"
        "void a ( ) { b ( ) ; }\n"
        "void b ( ) { a ( ) ; }\n"
        "void c ( ) { a ( ) ; }\n"
        "void s ( ) { s ( ) ; }\n", "ring.c")])
    rings = find_rings(fcg)
    names = [[f.func_name for f in ring] for ring in rings]
    assert names == [["a", "b"], ["s"]]


def test_acyclic_graph_has_no_rings():
    fcg = build_fcg([_unit(
        "void h ( ) { }\nvoid g ( ) { h ( ) ; }\nvoid f ( ) { g ( ) ; h ( ) ; }",
        "dag.c")])
    assert find_rings(fcg) == []


def _synthetic_fcg(num: int, edges):
    fcg = Fcg()
    ids = [FuncId("t.c", "", f"f{i}", 0) for i in range(num)]
    for fid in ids:
        fcg.defined[fid] = None
    for k, (a, b) in enumerate(edges):
        fcg.edges.append(FcgEdge(ids[a], ids[b], site_index=k, site_line=k + 1))
    return fcg, ids


def _oracle_cycle_nodes(num: int, edges):
    """Every node on at least one simple cycle, by rooted enumeration."""
    adj = {i: [] for i in range(num)}
    for a, b in edges:
        adj[a].append(b)
    on_cycle = set()

    def dfs(start: int, node: int, path):
        for nxt in adj[node]:
            if nxt == start:
                on_cycle.update(path)
            elif nxt > start and nxt not in path:
                dfs(start, nxt, path + [nxt])

    for start in range(num):
        dfs(start, start, [start])
    return on_cycle


def _reaches(adj, src: int, dst: int) -> bool:
    seen, work = {src}, [src]
    while work:
        for nxt in adj[work.pop()]:
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return False


def test_rings_match_simple_cycle_enumeration_on_random_digraphs():
    for seed in range(40):
        rng = random.Random(seed)
        num = rng.randint(1, 12)
        pairs = [(a, b) for a in range(num) for b in range(num)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, 2 * num)))
        fcg, ids = _synthetic_fcg(num, edges)
        rings = find_rings(fcg)

        index = {fid: i for i, fid in enumerate(ids)}
        members = [sorted(index[f] for f in ring) for ring in rings]
        flat = [i for ring in members for i in ring]
        assert len(flat) == len(set(flat)), "rings must be disjoint"
        assert set(flat) == _oracle_cycle_nodes(num, edges), (seed, edges)

        adj = {i: [] for i in range(num)}
        for a, b in edges:
            adj[a].append(b)
        for ring in members:
            for a in ring:
                for b in ring:
                    if a != b:
                        assert _reaches(adj, a, b), (seed, ring)
        for i, ring_a in enumerate(members):
            for ring_b in members[i + 1:]:
                a, b = ring_a[0], ring_b[0]
                assert not (_reaches(adj, a, b) and _reaches(adj, b, a))

        assert rings == sorted(rings, key=lambda r: r[0])
        assert all(ring == sorted(ring) for ring in rings)


if __name__ == "__main__":
    print(f"wrote {write_plan_golden()} cases to {PLAN_GOLDEN}")
