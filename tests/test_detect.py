"""End-to-end detection: flow rules, class-shape rules, path handling."""

from __future__ import annotations

from zkleak.detect import load_source, special_check
from zkleak.defects import DefectKind, dedup_and_sort
from zkleak.graphs import build_cfg
from zkleak.interp import explore, symbol_index
from zkleak.patterns import catalog_patterns
from zkleak.report import run
from zkleak.scopes import build_scope_tree
from zkleak.tokens import tokenize


def flow(source: str, name: str = "f.c", **kwargs):
    """Flow-based verdicts only: no class-shape rules, no warnings."""
    return dedup_and_sort(run([(name, source)], **kwargs).summary_run.defects)


def shapes(source: str, name: str = "s.cc"):
    return special_check([load_source(name, source)])


def full(source: str, name: str = "u.cc", **kwargs):
    return run([(name, source)], **kwargs)


# ---------------------------------------------------------------------------
# Flow-based verdicts
# ---------------------------------------------------------------------------

def test_plain_leak():
    (d,) = flow("void f ( ) { char * p ; p = malloc ( 4 ) ; }")
    assert d.kind is DefectKind.MISSING_RELEASE
    assert (d.line, d.func, d.path_c) == (1, "f", [])


def test_balanced_pair_is_clean():
    assert flow("void f ( ) { char * p ; p = malloc ( 4 ) ; free ( p ) ; }") == []


def test_conditional_release_names_the_dry_path():
    source = (
        "void f ( int c ) {\n"
        "  char * p ;\n"
        "  p = malloc ( 4 ) ;\n"
        "  if ( c ) { free ( p ) ; }\n"
        "}\n")
    (d,) = flow(source)
    assert d.kind is DefectKind.PATH_MISSING_RELEASE
    assert d.line == 3
    assert d.path_c == [("c", "else")]


def test_release_on_both_arms_is_clean():
    source = (
        "void f ( int c ) { char * p ; p = malloc ( 4 ) ; "
        "if ( c ) { free ( p ) ; } else { free ( p ) ; } }")
    assert flow(source) == []


def test_double_release():
    (d,) = flow("void f ( ) { char * p ; p = malloc ( 4 ) ; "
                "free ( p ) ; free ( p ) ; }")
    assert d.kind is DefectKind.DOUBLE_FREE


def test_pairing_mismatch():
    (d,) = flow("void f ( ) { char * p ; p = new char [ 8 ] ; delete p ; }")
    assert d.kind is DefectKind.MISMATCHED_ALLOC_FREE


def test_overwriting_the_last_owner():
    source = ("void f ( ) { char * p ; p = malloc ( 4 ) ; "
              "p = malloc ( 4 ) ; free ( p ) ; }")
    (d,) = flow(source)
    assert d.kind is DefectKind.POINTER_OWNERSHIP_LOST


def test_nulling_the_last_owner():
    (d,) = flow("void f ( ) { char * p ; p = malloc ( 4 ) ; p = 0 ; }")
    assert d.kind is DefectKind.POINTER_OWNERSHIP_LOST


def test_walking_the_only_pointer():
    (d,) = flow("void f ( ) { char * p ; p = malloc ( 4 ) ; p ++ ; }")
    assert d.kind is DefectKind.POINTER_OWNERSHIP_LOST


def test_aliased_walker_keeps_the_block_reachable():
    source = ("void f ( ) { char * p ; char * q ; p = malloc ( 4 ) ; "
              "q = p ; q ++ ; free ( p ) ; }")
    assert flow(source) == []


def test_loop_skip_variant_carries_no_path_tag():
    source = (
        "void f ( int n ) {\n"
        "  char * p ;\n"
        "  p = malloc ( 4 ) ;\n"
        "  while ( n ) { free ( p ) ; break ; }\n"
        "}\n")
    (d,) = flow(source)
    assert d.kind is DefectKind.PATH_MISSING_RELEASE
    assert d.path_c == []


def test_leak_on_every_arm_collapses_to_one_claim():
    source = (
        "void f ( int c ) { char * p ; p = malloc ( 4 ) ; "
        "if ( c ) { c = 1 ; } else { c = 2 ; } }")
    (d,) = flow(source)
    assert d.kind is DefectKind.MISSING_RELEASE
    assert d.path_c == []


def test_general_check_skips_class_rules():
    source = (
        "class Leaky { public: Leaky ( ) { p = malloc ( 2 ) ; } "
        "~ Leaky ( ) { free ( p ) ; } char * p ; } ;\n")
    assert flow(source, "cls.cc") == []
    # the class-shape rules live in special_check, which does flag the
    # same class once its release is missing
    bad = ("class Leaky { public: Leaky ( ) { p = malloc ( 2 ) ; } "
           "~ Leaky ( ) { } char * p ; } ;\n")
    kinds = [d.kind for d in shapes(bad)]
    assert DefectKind.CTOR_DTOR_MISMATCH in kinds


# ---------------------------------------------------------------------------
# Class-shape rules
# ---------------------------------------------------------------------------

def test_non_virtual_base_dtor():
    source = (
        "class B { public: ~ B ( ) { } } ;\n"
        "class D : public B { public: int x ; } ;\n")
    (d,) = shapes(source)
    assert d.kind is DefectKind.NON_VIRTUAL_BASE_DTOR
    assert d.func == "B" and d.line == 1


def test_virtual_base_dtor_is_fine():
    source = (
        "class B { public: virtual ~ B ( ) { } } ;\n"
        "class D : public B { public: int x ; } ;\n")
    assert shapes(source) == []


def test_ctor_alloc_without_dtor_release():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = new char [ 8 ] ; }\n"
        "  ~ C ( ) { }\n"
        "  char * buf ;\n"
        "} ;\n")
    defects = shapes(source)
    assert [d.kind for d in defects][0] is DefectKind.CTOR_DTOR_MISMATCH
    assert defects[0].line == 2
    assert defects[0].func == "C::C"


def test_ctor_alloc_with_wrong_pair_in_dtor():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = new char [ 8 ] ; }\n"
        "  ~ C ( ) { delete buf ; }\n"
        "  char * buf ;\n"
        "} ;\n")
    kinds = [d.kind for d in shapes(source)]
    assert kinds.count(DefectKind.CTOR_DTOR_MISMATCH) == 1


def test_matched_ctor_dtor_is_clean():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = new char [ 8 ] ; }\n"
        "  ~ C ( ) { delete [ ] buf ; }\n"
        "  C ( const C & other ) ;\n"
        "  C & operator = ( const C & other ) ;\n"
        "  char * buf ;\n"
        "} ;\n")
    assert shapes(source) == []


def test_owning_class_without_copy_control():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = malloc ( 8 ) ; }\n"
        "  ~ C ( ) { free ( buf ) ; }\n"
        "  char * buf ;\n"
        "} ;\n")
    (d,) = shapes(source)
    assert d.kind is DefectKind.SHALLOW_COPY
    assert d.line == 1 and d.func == "C"


def test_raw_pointer_copy_in_copy_ctor():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = malloc ( 8 ) ; }\n"
        "  C ( const C & other ) { buf = other . buf ; }\n"
        "  C & operator = ( const C & other ) ;\n"
        "  ~ C ( ) { free ( buf ) ; }\n"
        "  char * buf ;\n"
        "} ;\n")
    (d,) = shapes(source)
    assert d.kind is DefectKind.SHALLOW_COPY
    assert d.line == 3


def test_reallocating_copy_ctor_is_clean():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = malloc ( 8 ) ; }\n"
        "  C ( const C & other ) { buf = malloc ( 8 ) ; }\n"
        "  C & operator = ( const C & other ) ;\n"
        "  ~ C ( ) { free ( buf ) ; }\n"
        "  char * buf ;\n"
        "} ;\n")
    assert shapes(source) == []


def test_declared_only_copy_control_counts():
    source = (
        "class C { public:\n"
        "  C ( ) { buf = malloc ( 8 ) ; }\n"
        "  C ( const C & other ) ;\n"
        "  C & operator = ( const C & other ) ;\n"
        "  ~ C ( ) { free ( buf ) ; }\n"
        "  char * buf ;\n"
        "} ;\n")
    assert shapes(source) == []


def test_non_owning_pointer_member_is_not_flagged():
    source = "class V { public: char * view ; int n ; } ;"
    assert shapes(source) == []


# ---------------------------------------------------------------------------
# Composition, ordering, determinism
# ---------------------------------------------------------------------------

_MIXED = (
    "class B { public: ~ B ( ) { } } ;\n"
    "class D : public B { public: int x ; } ;\n"
    "void leak ( ) { char * p ; p = malloc ( 4 ) ; }\n"
    "void dbl ( ) { char * q ; q = malloc ( 4 ) ; free ( q ) ; free ( q ) ; }\n")


def test_results_are_sorted_and_unique():
    result = full(_MIXED)
    keys = [d.dedup_key() for d in result.defects]
    assert len(keys) == len(set(keys))
    assert [d.sort_key() for d in result.defects] == sorted(
        d.sort_key() for d in result.defects)


def test_two_runs_render_identically():
    first = "\n".join(d.render() for d in full(_MIXED).defects)
    second = "\n".join(d.render() for d in full(_MIXED).defects)
    assert first == second


def test_render_includes_the_path_clause():
    source = ("void f ( int c ) { char * p ; p = malloc ( 4 ) ; "
              "if ( c ) { free ( p ) ; } }")
    (d,) = flow(source)
    assert "(path: c -> else)" in d.render()
    assert d.render().startswith("f.c:1: PathMissingRelease:")


def test_unbalanced_braces_surface_as_a_warning():
    result = full("void f ( ) { char * p ; p = malloc ( 4 ) ;", "broken.c")
    assert any(d.kind is DefectKind.UNBALANCED_BRACES_WARNING
               for d in result.warnings)


# ---------------------------------------------------------------------------
# Variants and the path budget
# ---------------------------------------------------------------------------

def _outcome(source: str, budget: int = 64):
    stream = tokenize(source, "v.c")
    root = build_scope_tree(stream)
    cfg = build_cfg(root.function_scopes[0], stream)
    return explore(cfg, catalog_patterns(None), {}, symbol_index(root),
                   budget=budget), stream


def test_sequential_branches_fork_multiplicatively():
    source = (
        "void f ( int a , int b ) { char * p ; p = malloc ( 4 ) ; "
        "if ( a ) { a = 1 ; } if ( b ) { b = 1 ; } free ( p ) ; }")
    outcome, _ = _outcome(source)
    assert len(outcome.variants) == 4
    assert not outcome.path_insensitive
    ids = {tuple(sorted(v.machines.by_id)) for v in outcome.variants}
    assert ids == {(1,)}, "every fork carries the same tracked block"
    paths = {tuple(v.path) for v in outcome.variants}
    assert paths == {
        (("a", "then"), ("b", "then")),
        (("a", "then"), ("b", "else")),
        (("a", "else"), ("b", "then")),
        (("a", "else"), ("b", "else")),
    }


def test_budget_overflow_merges_and_degrades():
    arms = " ".join(f"if ( c{i} ) {{ x = {i} ; }}" for i in range(8))
    params = " , ".join(f"int c{i}" for i in range(8))
    source = f"void f ( {params} ) {{ int x ; {arms} }}"
    outcome, stream = _outcome(source, budget=4)
    assert outcome.path_insensitive
    assert len(outcome.variants) <= 4
    assert any(d.code == "PathBudgetExceeded" for d in stream.diagnostics)


def test_budget_merge_keeps_the_verdict_conservative():
    # Even fully merged, an unreleased block must still be claimed.
    arms = " ".join(f"if ( c{i} ) {{ x = {i} ; }}" for i in range(8))
    params = " , ".join(f"int c{i}" for i in range(8))
    source = (f"void f ( {params} ) {{ char * p ; int x ; "
              f"p = malloc ( 4 ) ; {arms} }}")
    defects = flow(source, budget=4)
    assert [d.kind for d in defects] == [DefectKind.MISSING_RELEASE]
