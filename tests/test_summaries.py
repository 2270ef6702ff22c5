"""Function summaries: extraction, call-site application, inlining parity.

Equivalence cases at the bottom pit a wrapper-using program against the
same program with the wrapper body pasted in by hand; both must yield
the same defect multiset.
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

from zkleak import summaries
from zkleak.graphs import (Fcg, FcgEdge, FuncId, build_fcg, defined_successors,
                           post_order)
from zkleak.patterns import catalog_patterns
from zkleak.report import run as run_report
from zkleak.scopes import build_scope_tree
from zkleak.summaries import (
    ACTION_UNKNOWN,
    REF_GLOBAL,
    dump_summaries,
    update_all,
)
from zkleak.tokens import tokenize


def run(source: str, name: str = "s.c"):
    stream = tokenize(source, name)
    root = build_scope_tree(stream)
    fcg = build_fcg([(root, stream)])
    return update_all([(root, stream)], fcg, catalog_patterns(None))


def summary_of(result, func_name: str):
    (fid,) = [f for f in result.summaries if f.func_name == func_name]
    return result.summaries[fid]


def rendered(result, func_name: str):
    return [(e.owner.render(), e.action.render())
            for e in summary_of(result, func_name).entries]


def claims(result):
    return sorted((d.kind.value, d.line) for d in result.defects
                  if not d.is_warning())


_MK = "char * mk ( int n ) { char * p ; p = malloc ( n ) ; return p ; }\n"
_REL = "void rel ( char * p ) { free ( p ) ; }\n"


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_producer_summary():
    result = run(_MK)
    assert rendered(result, "mk") == [("return", "alloc(malloc)")]
    assert claims(result) == []


def test_releaser_summary():
    result = run(_REL)
    assert rendered(result, "rel") == [("param0", "free(free)")]


def test_array_and_pointer_typedef_parameters_are_released():
    caller = "void g ( void ) { char * p ; p = malloc ( 4 ) ; rel ( p ) ; free ( p ) ; }\n"
    for head, param in (("", "char buf [ ]"), ("", "char buf [ SIZE ]"),
                        ("typedef char * str ;\n", "str buf")):
        source = f"{head}void rel ( {param} ) {{ free ( buf ) ; }}\n{caller}"
        result = run(source)
        assert rendered(result, "rel") == [("param0", "free(free)")], param
        assert claims(result) == [("DoubleFree", source.count("\n"))], param


def test_a_call_through_a_function_pointer_parameter_links_to_no_definition():
    # The parameter cb hides the global cb, so cb ( p ) may do anything to
    # p: the free after it is no second release.
    source = ("void call ( void ( * cb ) ( char * q ) , char * r ) {\n"
              "  char * p ; p = malloc ( 4 ) ; cb ( p ) ; free ( p ) ; }\n"
              "void cb ( char * x ) { free ( x ) ; }\n")
    stream = tokenize(source, "s.c")
    fcg = build_fcg([(build_scope_tree(stream), stream)])
    assert [e.callee for e in fcg.edges if e.callee.func_name == "cb"] == [
        FuncId("", "", "cb", 1)]
    assert claims(run(source)) == []


@pytest.mark.parametrize("source", [
    "void f ( ) { [ [ maybe_unused ] ] char * p ; p = malloc ( 8 ) ; }",
    # a pointer typedef named after the first comma of a typedef
    "typedef struct _F { int a ; } F , * PF ; void g ( ) { PF p ; p = malloc ( 4 ) ; }",
    # a parameter and a type named past a ">>" after a ")" in template arguments
    "void f ( std :: vector < std :: function < void ( int ) >> cbs , char * p ) { "
    "p = malloc ( 4 ) ; }",
    "typedef std :: vector < std :: function < void ( int ) >> V ; struct S { int a ; } ; "
    "void g ( ) { S * p ; p = malloc ( 4 ) ; }",
])
def test_a_declaration_the_reader_names_keeps_its_leak(source):
    assert claims(run(source)) == [("MissingRelease", 1)]


@pytest.mark.parametrize("source", [
    "void g(void) { char *p __attribute__((unused)) = malloc(4); }",
    "void g ( void ) { char * p __attribute__ ( ( unused ) ) ; p = malloc ( 4 ) ; }",
])
def test_a_gnu_attribute_after_a_declarator_keeps_its_leak(source):
    # The lexer drops the attribute, so "p = malloc (" matches and no
    # prototype named __attribute__ is recorded.
    stream = tokenize(source, "s.c")
    assert build_scope_tree(stream).declared_funcs == []
    assert [(v.name, v.is_pointer) for v in stream.vars[1:]] == [("p", True)]
    assert claims(run(source)) == [("MissingRelease", 1)]


@pytest.mark.parametrize("source", [
    "void rel(char **q); void f(void) { char *p __attribute__((cleanup(rel))) = malloc(4); }",
    "void rel(char **q); void f(void) {\n"
    "  char *p __attribute__((unused, __cleanup__(rel))) = malloc(4); }",
])
def test_a_cleanup_attribute_reports_no_leak(source):
    # The compiler releases p through rel, which the walk does not model,
    # so the attribute is kept and hides the declaration.
    assert claims(run(source)) == []


def test_balanced_local_pair_summarizes_to_nothing():
    result = run("void ok ( ) { char * p ; p = malloc ( 8 ) ; free ( p ) ; }")
    assert rendered(result, "ok") == []
    assert claims(result) == []


def test_partial_release_keeps_the_skipping_path():
    result = run("void maybe ( char * p , int c ) { if ( c ) { free ( p ) ; } }")
    (entry,) = summary_of(result, "maybe").entries
    assert entry.owner.render() == "param0"
    assert entry.action.render() == "free(free) partial"
    assert entry.path == (("c", "else"),)


def test_passing_to_an_unknown_callee_is_recorded_as_unknown():
    result = run("void use ( char * p ) { keep ( p ) ; }")
    (entry,) = summary_of(result, "use").entries
    assert entry.owner.render() == "param0"
    assert entry.action.kind == ACTION_UNKNOWN


def test_stashing_into_a_global_is_an_alloc_entry():
    result = run("char * g ;\nvoid stash ( ) { g = malloc ( 4 ) ; }")
    (entry,) = summary_of(result, "stash").entries
    assert entry.owner.kind == REF_GLOBAL
    assert entry.action.render() == "alloc(malloc)"
    assert claims(result) == []


def test_second_run_reproduces_the_first():
    source = _MK + _REL + (
        "void maybe ( char * p , int c ) { if ( c ) { free ( p ) ; } }\n"
        "void user ( int c ) { char * p ; p = mk ( 3 ) ; maybe ( p , c ) ; }\n")
    first, second = run(source), run(source)
    assert dump_summaries(first) == dump_summaries(second)
    assert claims(first) == claims(second)


def test_dump_summaries_layout():
    result = run(_MK + _REL + "void ok ( ) { char * q ; q = mk ( 1 ) ; rel ( q ) ; }")
    assert dump_summaries(result) == (
        "s.c::::mk/1 | return | alloc(malloc) | -\n"
        "s.c::::ok/0 | -\n"
        "s.c::::rel/1 | param0 | free(free) | -"
    )


# ---------------------------------------------------------------------------
# Application at call sites
# ---------------------------------------------------------------------------

def test_unreleased_producer_result_leaks_at_the_call():
    source = _MK + "void leak ( ) { char * p ; p = mk ( 3 ) ; }"
    result = run(source)
    assert claims(result) == [("MissingRelease", 2)]
    (defect,) = [d for d in result.defects if not d.is_warning()]
    assert defect.func == "leak"


def test_wrapped_release_balances_the_producer():
    source = _MK + _REL + "void fine ( ) { char * p ; p = mk ( 3 ) ; rel ( p ) ; }"
    assert claims(run(source)) == []


def test_partial_release_surfaces_with_the_callee_path():
    source = (
        "void maybe ( char * p , int c ) { if ( c ) { free ( p ) ; } }\n"
        "void top ( int c ) { char * p ; p = malloc ( 8 ) ; maybe ( p , c ) ; }\n")
    result = run(source)
    assert claims(result) == [("PathMissingRelease", 2)]
    (defect,) = [d for d in result.defects if not d.is_warning()]
    assert defect.path_c == [("c", "else")]


def test_taint_pair_with_and_without_the_unknown_call():
    with_call = run(
        "void a1 ( ) { char * p ; p = malloc ( 8 ) ; keep ( p ) ; }", "w.c")
    without = run(
        "void a2 ( ) { char * p ; p = malloc ( 8 ) ; }", "wo.c")
    assert claims(with_call) == []
    assert claims(without) == [("MissingRelease", 1)]


def test_chain_propagates_through_two_hops():
    source = (
        "char * h ( ) { char * p ; p = malloc ( 1 ) ; return p ; }\n"
        "char * g ( ) { return h ( ) ; }\n"
        "char * f ( ) { return g ( ) ; }\n"
        "void top ( ) { char * q ; q = f ( ) ; }\n")
    result = run(source)
    for name in ("h", "g", "f"):
        assert rendered(result, name) == [("return", "alloc(malloc)")]
    assert claims(result) == [("MissingRelease", 4)]


def test_reallocating_wrapper_frees_and_reallocates():
    source = (
        "char * grow ( char * p , int n ) "
        "{ char * q ; q = realloc ( p , n ) ; return q ; }\n")
    result = run(source)
    assert sorted(rendered(result, "grow")) == [
        ("param0", "free(free)"),
        ("return", "alloc(realloc)"),
    ]


def test_growing_in_place_through_the_wrapper_is_clean():
    source = (
        "char * grow ( char * p , int n ) "
        "{ char * q ; q = realloc ( p , n ) ; return q ; }\n"
        "void c1 ( ) { char * b ; b = malloc ( 1 ) ; b = grow ( b , 2 ) ; "
        "free ( b ) ; }\n")
    assert claims(run(source)) == []


# ---------------------------------------------------------------------------
# Records written at the moment of the effect
# ---------------------------------------------------------------------------

def test_release_survives_rebinding_the_parameter():
    source = (
        "void destroy ( char * p ) { free ( p ) ; p = NULL ; }\n"
        "void c ( ) { char * q ; q = malloc ( 4 ) ; destroy ( q ) ; }\n")
    result = run(source)
    assert rendered(result, "destroy") == [("param0", "free(free)")]
    assert claims(result) == []


def test_release_of_a_global_survives_reallocating_it():
    source = (
        "char * g ;\n"
        "void k ( void ) { free ( g ) ; g = malloc ( 4 ) ; }\n"
        "void c ( void ) { char * q ; q = g ; k ( ) ; free ( q ) ; }\n")
    result = run(source)
    assert sorted(rendered(result, "k")) == [("g1", "alloc(malloc)"),
                                             ("g1", "free(free)")]
    assert claims(result) == [("DoubleFree", 3)]


def test_lost_tracking_survives_rebinding_the_parameter():
    source = (
        "void k ( char * p ) { use ( p ) ; p = NULL ; }\n"
        "void c ( ) { char * q ; q = malloc ( 4 ) ; k ( q ) ; }\n")
    result = run(source)
    assert rendered(result, "k") == [("param0", "unknown")]
    assert claims(result) == []


def test_a_release_of_storage_no_longer_tracked_is_still_recorded():
    # The unknown callee loses param0, so the summary says unknown, yet
    # the walk still records the first free and so claims the second.
    result = run("void f ( char * p ) { use ( p ) ; free ( p ) ; free ( p ) ; }")
    assert rendered(result, "f") == [("param0", "unknown")]
    assert claims(result) == [("DoubleFree", 1)]


def test_an_unknown_callee_loses_only_a_global_already_read():
    unread = run("char * g ;\n"
                 "void f ( void ) { use ( g ) ; free ( g ) ; free ( g ) ; }")
    assert rendered(unread, "f") == [("g1", "free(free)")]
    assert claims(unread) == [("DoubleFree", 2)]
    read = run("char * g ;\n"
               "void f ( void ) { char * q ; q = g ; use ( g ) ; free ( q ) ; }")
    assert rendered(read, "f") == [("g1", "unknown")]
    caller = run(
        "char * g ;\n"
        "void reset ( void ) { memset ( g , 0 , 4 ) ; free ( g ) ; }\n"
        "void c ( void ) { char * q ; q = g ; reset ( ) ; free ( q ) ; }\n")
    assert rendered(caller, "reset") == [("g1", "free(free)")]
    assert claims(caller) == [("DoubleFree", 3)]


def test_a_merged_global_reaches_its_storage_whichever_arm_rebinds_it():
    # The first if's two arms, then seven more ifs: 256 paths against the
    # budget of 64, so the walk merges its variants.
    tail = "if ( c ) { c = 1 ; } " * 7 + "free ( g ) ; }"
    for arms in ("{ g = NULL ; } else { c = 0 ; }",
                 "{ c = 0 ; } else { g = NULL ; }"):
        result = run("char * g ;\n"
                     f"void f ( int c ) {{ if ( c ) {arms} {tail}\n")
        (entry,) = summary_of(result, "f").entries
        assert entry.owner.kind == REF_GLOBAL, arms
        assert entry.action.render() == "free(free)", arms


def test_a_rebound_global_no_longer_reaches_its_storage():
    source = (
        "char * g ;\n"
        "void k ( void ) { g = NULL ; free ( g ) ; }\n"
        "void c ( void ) { char * q ; q = g ; k ( ) ; free ( q ) ; }\n")
    result = run(source)
    assert rendered(result, "k") == []
    assert claims(result) == []


def test_a_returned_global_is_summarized_as_returned_and_stored():
    # f0 stores the new block in g and returns it, so a caller that drops
    # the result still finds the block in g, and reallocating g there is
    # no second release of the old block.
    source = (
        "char * g ;\n"
        "char * f0 ( void ) { char * b ; b = g ; b = realloc ( b , 8 ) ; "
        "g = b ; return g ; }\n"
        "void f1 ( void ) { char * a ; f0 ( ) ; a = realloc ( g , 8 ) ; "
        "free ( a ) ; }\n")
    result = run(source)
    assert sorted(rendered(result, "f0")) == [
        ("g1", "alloc(realloc)"), ("g1", "free(free)"),
        ("return", "alloc(realloc)")]
    assert "DoubleFree" not in {kind for kind, _line in claims(result)}


def test_a_return_marks_the_block_it_returns_there():
    # The goto makes the body a chain, so the walk goes on past return p;
    # the block p owns there is returned, not the one it owns at exit.
    source = (
        "char * f ( int n ) {\n"
        "  char * p ;\n"
        "  p = malloc ( 4 ) ;\n"
        "  if ( n ) goto out ;\n"
        "  return p ;\n"
        "out :\n"
        "  p = new char [ 8 ] ;\n"
        "  return 0 ;\n"
        "}\n"
        "void g ( int n ) {\n"
        "  char * q ;\n"
        "  q = f ( n ) ;\n"
        "  delete [ ] q ;\n"
        "}\n")
    result = run(source, "r.cc")
    assert rendered(result, "f") == [("return", "alloc(malloc)")]
    assert claims(result) == [("MismatchedAllocFree", 13),
                              ("MissingRelease", 7)]


def test_a_block_first_in_a_body_keeps_its_declarations():
    # The inner a is the block's own; the outer free releases the
    # parameter, once.
    body = "{ char * a ; a = malloc ( 4 ) ; free ( a ) ; } free ( a ) ;"
    for prefix in ("", "int n ; "):
        result = run(f"void f ( char * a ) {{ {prefix}{body} }}")
        assert rendered(result, "f") == [("param0", "free(free)")], prefix
        assert claims(result) == [], prefix


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def test_ring_members_get_the_pessimistic_summary():
    source = (
        "void b ( char * p ) ;\n"
        "void a ( char * p ) { b ( p ) ; }\n"
        "void b ( char * p ) { a ( p ) ; }\n"
        "void caller ( ) { char * x ; x = malloc ( 1 ) ; a ( x ) ; }\n")
    result = run(source)
    assert [[f.func_name for f in ring] for ring in result.rings] == [["a", "b"]]
    for name in ("a", "b"):
        summary = summary_of(result, name)
        assert summary.ring_member
        assert [e.action.kind for e in summary.entries] == [ACTION_UNKNOWN]
    # One ring finding; the tainted caller must not also claim a leak.
    assert claims(result) == [("RecursiveCallRing", 2)]


def test_self_recursion_is_a_ring_too():
    result = run("void s ( int n ) { s ( n ) ; }")
    assert [[f.func_name for f in ring] for ring in result.rings] == [["s"]]
    assert claims(result) == [("RecursiveCallRing", 1)]


def test_functions_outside_the_ring_still_summarize():
    source = (
        "void a ( int n ) { b ( n ) ; }\n"
        "void b ( int n ) { a ( n ) ; }\n"
        "char * mk ( ) { char * p ; p = malloc ( 2 ) ; return p ; }\n")
    result = run(source)
    assert rendered(result, "mk") == [("return", "alloc(malloc)")]
    assert not summary_of(result, "mk").ring_member


def _reference_post_order(defined, edges):
    """Depth-first post-order, children visited in sorted order."""
    order, seen = [], set()

    def visit(node):
        for child in sorted(b for a, b in edges if a == node and b in defined):
            if child not in seen:
                seen.add(child)
                visit(child)
        order.append(node)

    for start in sorted(defined):
        if start not in seen:
            seen.add(start)
            visit(start)
    return order


def test_post_order_matches_a_recursive_reference_on_random_digraphs():
    for seed in range(40):
        rng = random.Random(seed)
        ids = [FuncId("t.c", "", f"f{i}", 0) for i in range(rng.randint(1, 12))]
        external = FuncId("", "", "ext", 0)
        fcg = Fcg()
        for fid in rng.sample(ids, len(ids)):
            fcg.defined[fid] = None
        edges = [(rng.choice(ids), rng.choice(ids + [external]))
                 for _ in range(rng.randint(0, 3 * len(ids)))]
        for k, (a, b) in enumerate(edges):
            fcg.add_edge(FcgEdge(a, b, site_index=k, site_line=k + 1))
        assert (post_order(defined_successors(fcg))
                == _reference_post_order(set(ids), edges)), seed


# ---------------------------------------------------------------------------
# Inlining parity
# ---------------------------------------------------------------------------

_PAIRS = [
    # producer leak
    (_MK + "void t ( ) { char * p ; p = mk ( 3 ) ; }",
     "void t ( ) { char * p ; p = malloc ( 3 ) ; }"),
    # producer plus wrapped release
    (_MK + _REL + "void t ( ) { char * p ; p = mk ( 3 ) ; rel ( p ) ; }",
     "void t ( ) { char * p ; p = malloc ( 3 ) ; free ( p ) ; }"),
    # double release through a wrapper
    (_REL + "void t ( ) { char * p ; p = malloc ( 4 ) ; rel ( p ) ; free ( p ) ; }",
     "void t ( ) { char * p ; p = malloc ( 4 ) ; free ( p ) ; free ( p ) ; }"),
    # conditional release in the callee
    ("void maybe ( char * p , int c ) { if ( c ) { free ( p ) ; } }\n"
     "void t ( int c ) { char * p ; p = malloc ( 8 ) ; maybe ( p , c ) ; }",
     "void t ( int c ) { char * p ; p = malloc ( 8 ) ; if ( c ) { free ( p ) ; } }"),
    # mismatched release hidden behind a wrapper
    (_REL + "void t ( ) { char * p ; p = new char [ 4 ] ; rel ( p ) ; }",
     "void t ( ) { char * p ; p = new char [ 4 ] ; free ( p ) ; }"),
]


def test_call_form_and_inlined_form_agree():
    for call_form, inline_form in _PAIRS:
        with_calls = Counter(k for k, _ in claims(run(call_form, "a.c")))
        inlined = Counter(k for k, _ in claims(run(inline_form, "b.c")))
        assert with_calls == inlined, call_form


# ---------------------------------------------------------------------------
# CFG lifetime
# ---------------------------------------------------------------------------

_FREE_AND_MEMBERS = (
    "char * mk ( ) { char * p ; p = malloc ( 4 ) ; return p ; }\n"
    "void rel ( char * p ) { free ( p ) ; }\n"
    "void use ( ) { char * q ; q = mk ( ) ; rel ( q ) ; }\n"
    "void leak ( ) { char * r ; r = mk ( ) ; }\n"
    "class Buf { public : Buf ( ) { data = new char [ 8 ] ; }\n"
    "  ~ Buf ( ) { delete [ ] data ; } void reset ( ) ; char * data ; } ;\n"
    "void Buf :: reset ( ) { delete [ ] data ; data = 0 ; }\n")


def test_a_free_function_cfg_is_dropped_after_its_walk(monkeypatch):
    built = []  # (weak reference to the CFG, whether it is a member's)
    free_alive = []  # free-function CFGs still alive at each build
    original = summaries.build_cfg

    def recording_build_cfg(scope, stream):
        free_alive.append(sum(ref() is not None for ref, member in built
                              if not member))
        cfg = original(scope, stream)
        built.append((weakref.ref(cfg), bool(scope.owner_class)))
        return cfg

    monkeypatch.setattr(summaries, "build_cfg", recording_build_cfg)
    # Only reference counting may free a CFG here, not a collector pass.
    gc.disable()
    try:
        report = run_report([("m.cc", _FREE_AND_MEMBERS)])
    finally:
        gc.enable()

    assert len(built) == 7 and sum(member for _ref, member in built) == 3
    assert max(free_alive) == 0  # not even the previous body's
    kept = report.summary_run.cfgs
    assert sorted(id(cfg) for cfg in kept) == sorted(
        id(ref()) for ref, member in built if member)
    assert sorted(cfg.func.qualified() for cfg in kept) == [
        "Buf::Buf", "Buf::reset", "Buf::~Buf"]
