"""Control-flow graphs, the call graph, and ring detection.

The CFG manifest below was annotated by hand from the construction
rules: one Statement node per simple statement, Branch/Join pairs for
conditionals, a LoopHead with the back edge for loops, Return wired to
Exit.  Ring detection is checked against exhaustive simple-cycle
enumeration on random digraphs.
"""

from __future__ import annotations

import random

from zkleak.graphs import (
    CfgNodeKind,
    FcgEdge,
    Fcg,
    FuncId,
    build_cfg,
    build_fcg,
    dump_cfg,
    dump_fcg,
    find_rings,
)
from zkleak.scopes import build_scope_tree
from zkleak.tokens import tokenize


def _unit(source: str, name: str):
    stream = tokenize(source, name)
    return build_scope_tree(stream), stream


def _cfg(source: str, name: str = "cfg.c", which: int = 0):
    root, stream = _unit(source, name)
    return build_cfg(root.function_scopes[which], stream)


# ---------------------------------------------------------------------------
# Node/edge-count manifest
# ---------------------------------------------------------------------------

# (source, node count, edge count); edges counted over successor lists.
_CFG_MANIFEST = [
    ("void f ( ) { }", 2, 1),
    ("void f ( ) { int a ; }", 3, 2),
    ("void f ( ) { int a ; a = 1 ; a = 2 ; }", 5, 4),
    ("void f ( int c ) { if ( c ) { c = 1 ; } c = 2 ; }", 6, 6),
    ("void f ( int c ) { if ( c ) { c = 1 ; } else { c = 2 ; } }", 6, 6),
    ("void f ( int c ) { if ( c ) { } else { } }", 4, 4),
    ("void f ( int c ) { if ( c ) { if ( c ) { c = 1 ; } } }", 7, 8),
    ("void f ( int c ) { if ( c ) { c = 1 ; } else if ( c ) { c = 2 ; } else { c = 3 ; } }", 9, 10),
    ("void f ( int c ) { while ( c ) { c -- ; } }", 4, 4),
    ("void f ( int c ) { do { c -- ; } while ( c ) ; }", 4, 4),
    ("void f ( ) { for ( int i = 0 ; i < 3 ; i ++ ) { i = i ; } }", 6, 6),
    ("void f ( int c ) { while ( c ) { c -- ; } while ( c ) { c ++ ; } }", 6, 7),
    ("void f ( int c ) { while ( c ) { if ( c ) { c = 1 ; } else { c = 2 ; } } }", 7, 8),
    ("void f ( int c ) { while ( c ) { if ( c ) { break ; } c -- ; } }", 7, 8),
    ("void f ( int c ) { while ( c ) { if ( c ) { continue ; } c -- ; } }", 7, 8),
    ("void f ( int c ) { switch ( c ) { case 1 : c = 0 ; break ; default : c = 9 ; } }", 7, 7),
    ("void f ( int c ) { switch ( c ) { case 1 : c = 0 ; break ; case 2 : c = 5 ; break ; } }", 8, 9),
    ("void f ( int c ) { if ( c ) { return ; } c = 1 ; }", 6, 6),
    ("int f ( int c ) { c = 1 ; return c ; }", 4, 3),
    ("int f ( ) { return 0 ; int a ; }", 4, 3),
]


def test_manifest_node_and_edge_counts():
    assert len(_CFG_MANIFEST) == 20
    for source, nodes, edges in _CFG_MANIFEST:
        cfg = _cfg(source)
        got_edges = sum(len(n.succ) for n in cfg.nodes)
        assert (len(cfg.nodes), got_edges) == (nodes, edges), source


def test_manifest_structural_invariants():
    for source, _, _ in _CFG_MANIFEST:
        cfg = _cfg(source)
        entry, exit_ = cfg.node(cfg.entry), cfg.node(cfg.exit)
        assert entry.kind is CfgNodeKind.ENTRY and entry.pred == []
        assert exit_.kind is CfgNodeKind.EXIT and exit_.succ == []
        assert sum(1 for n in cfg.nodes if n.kind is CfgNodeKind.ENTRY) == 1
        assert sum(1 for n in cfg.nodes if n.kind is CfgNodeKind.EXIT) == 1
        for node in cfg.nodes:
            if node.kind in (CfgNodeKind.BRANCH, CfgNodeKind.LOOP_HEAD):
                assert len(node.succ) >= 2, source
            for s in node.succ:
                assert node.id in cfg.node(s).pred
            for p in node.pred:
                assert node.id in cfg.node(p).succ
        assert not cfg.degraded


def test_straight_line_shape():
    cfg = _cfg("void f ( ) { int a ; a = 1 ; a = 2 ; }")
    kinds = [n.kind for n in cfg.nodes]
    assert kinds == [
        CfgNodeKind.ENTRY,
        CfgNodeKind.STATEMENT,
        CfgNodeKind.STATEMENT,
        CfgNodeKind.STATEMENT,
        CfgNodeKind.EXIT,
    ]
    assert [n.succ for n in cfg.nodes] == [[1], [2], [3], [4], []]


def test_if_else_shape_and_guard():
    cfg = _cfg("void f ( int c ) { if ( c < 3 ) { c = 1 ; } else { c = 2 ; } }")
    assert dump_cfg(cfg) == (
        "0 Entry 1 -> 1\n"
        "1 Branch 1 -> 2,3\n"
        "2 Statement 1 -> 4\n"
        "3 Statement 1 -> 4\n"
        "4 Join 1 -> 5\n"
        "5 Exit 1 -> -"
    )
    assert cfg.node(1).guard_text == "c < 3"


def test_loop_has_back_edge():
    cfg = _cfg("void f ( int c ) { while ( c ) { c -- ; } }")
    (head,) = [n for n in cfg.nodes if n.kind is CfgNodeKind.LOOP_HEAD]
    body_preds = [p for p in head.pred if p != cfg.entry]
    assert body_preds, "loop head needs a back edge"
    assert cfg.exit in head.succ or any(
        cfg.node(s).kind is not CfgNodeKind.STATEMENT for s in head.succ)


def test_return_connects_to_exit():
    cfg = _cfg("void f ( int c ) { if ( c ) { return ; } c = 1 ; }")
    (ret,) = [n for n in cfg.nodes if n.kind is CfgNodeKind.RETURN]
    assert ret.succ == [cfg.exit]


def test_goto_degrades_to_a_chain():
    source = "void f ( ) { goto out ; out : ; }"
    stream = tokenize(source, "g.c")
    root = build_scope_tree(stream)
    cfg = build_cfg(root.function_scopes[0], stream)
    assert cfg.degraded
    assert all(len(n.succ) <= 1 for n in cfg.nodes)
    assert any(d.code == "MalformedControlFlow" for d in stream.diagnostics)


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


def test_call_sites_carry_token_positions():
    root, stream = _unit("void g ( ) { }\nvoid f ( ) { g ( ) ; }", "pos.c")
    fcg = build_fcg([(root, stream)])
    (edge,) = fcg.edges
    assert stream[edge.site_index].text == "g"
    assert edge.site_line == 2
    caller = edge.caller
    assert fcg.call_sites(caller) == {edge.site_index: edge.callee}
    assert fcg.callees(caller) == [edge.callee]
    assert fcg.callers(edge.callee) == [caller]


def _assert_index_matches_edges(fcg):
    assert fcg.defined
    for fid in fcg.defined:
        brute = {e.site_index: e.callee for e in fcg.edges if e.caller == fid}
        assert list(fcg.call_sites(fid).items()) == list(brute.items()), fid
        assert fcg.callees(fid) == [e.callee for e in fcg.edges if e.caller == fid]
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
    assert [f.func_name for f in fcg.callees(caller)] == ["g", "h", "g"]


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
