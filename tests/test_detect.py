"""End-to-end detection: flow rules, class-shape rules, path handling."""

from __future__ import annotations

from zkleak.detect import special_check
from zkleak.defects import DefectKind, dedup_and_sort
from zkleak.graphs import build_cfg
from zkleak.interp import (PATH_BUDGET, REF_PARAM, OwnerRef, Variant,
                           explore)
from zkleak.machine import (AllocRecord, FreeRecord, Machine,
                            MachineSet, MemState)
from zkleak.patterns import catalog_patterns
from zkleak.report import run
from zkleak.scopes import build_scope_tree
from zkleak.tokens import tokenize


def flow(source: str, name: str = "f.c", **kwargs):
    """Flow-based verdicts only: no class-shape rules, no warnings."""
    return dedup_and_sort(run([(name, source)], **kwargs).summary_run.defects)


def shapes(source: str, name: str = "s.cc"):
    report = run([(name, source)])
    return special_check(report.units, report.summary_run.cfgs)


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


def test_statements_after_a_do_while_are_walked():
    assert flow("void f ( int n ) { char * p ; p = malloc ( 4 ) ; "
                "do { n -- ; } while ( n ) ; free ( p ) ; }") == []
    (d,) = flow("void f ( int n ) { char * p ; do { n -- ; } while ( n ) ; "
                "if ( n ) { p = malloc ( 4 ) ; } }")
    assert (d.kind, d.line) == (DefectKind.MISSING_RELEASE, 1)


def test_a_release_after_a_do_with_no_while_is_walked():
    assert flow("void f ( int n ) { char * p ; p = malloc ( 4 ) ; "
                "do { n -- ; } free ( p ) ; }") == []


def test_a_statement_missing_its_semicolon_does_not_run_past_its_block():
    # The then arm ends at its "}", so "free ( p ) ;" runs once on each path.
    assert flow("void f ( int n ) { char * p ; p = malloc ( 4 ) ; "
                "if ( n ) { n = 1 } free ( p ) ; }") == []


def test_a_label_inside_an_arm_statement_stays_in_that_statement():
    # Only a label at the top level of the switch body opens an arm, so
    # "case 2 : free ( p ) ;" is the then branch of the if and runs once.
    (d,) = flow("void f ( int n , int a ) { char * p ; p = malloc ( 4 ) ; "
                "switch ( n ) { case 1 : if ( a ) case 2 : free ( p ) ; break ; "
                "default : free ( p ) ; } }")
    assert (d.kind, d.path_c) == (DefectKind.PATH_MISSING_RELEASE,
                                  [("n", "case:1"), ("a", "else")])


def test_a_label_inside_a_bare_block_of_a_switch_body_opens_an_arm():
    (d,) = flow("void f ( int n ) { char * p ; p = malloc ( 4 ) ; "
                "switch ( n ) { { case 1 : free ( p ) ; } } }")
    assert d.kind is DefectKind.PATH_MISSING_RELEASE


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


def test_return_break_and_continue_reach_their_targets():
    # continue and break inside a switch in a loop, return inside the
    # loop, and break out of the loop; the body runs twice.
    source = (
        "void f ( int c , int n ) {\n"
        "  char * p ;\n"
        "  while ( c ) {\n"
        "    p = malloc ( 4 ) ;\n"
        "    switch ( n ) {\n"
        "      case 0 : free ( p ) ; continue ;\n"
        "      case 1 : break ;\n"
        "      default : free ( p ) ; return ;\n"
        "    }\n"
        "    if ( n ) break ;\n"
        "    free ( p ) ;\n"
        "  }\n"
        "}\n")
    defects = flow(source)
    assert [(d.kind, d.line) for d in defects] == [
        (DefectKind.PATH_MISSING_RELEASE, 4)] * 3
    loop, c0, c1 = ("c", "loop"), ("n", "case:0"), ("n", "case:1")
    then, other = ("n", "then"), ("n", "else")
    assert [d.path_c for d in defects] == [
        [loop, c0, c1, then], [loop, c1, other, c1, then], [loop, c1, then]]
    # Exit variants in walk order: the returns, then those leaving the
    # loop (the skip, the end of the second pass, the breaks of both).
    outcome, _ = _outcome(source)
    default = ("n", "default")
    assert [list(v.path) for v in outcome.variants] == [
        [loop, default], [loop, c1, other, default], [loop, c0, default],
        [],
        [loop, c1, other, c1, other], [loop, c0, c1, other],
        [loop, c1, other, c0], [loop, c0, c0],
        [loop, c1, then], [loop, c1, other, c1, then], [loop, c0, c1, then]]

    dowhile = (
        "void f ( int n ) {\n"
        "  char * p ;\n"
        "  do {\n"
        "    p = malloc ( 4 ) ;\n"
        "    if ( n ) break ;\n"
        "    free ( p ) ;\n"
        "  } while ( n ) ;\n"
        "}\n")
    defects = flow(dowhile)
    assert [(d.kind, d.line, d.path_c) for d in defects] == [
        (DefectKind.PATH_MISSING_RELEASE, 4, [other, then]),
        (DefectKind.PATH_MISSING_RELEASE, 4, [then])]


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


def test_both_ifdef_twins_are_walked():
    source = ("#ifdef FAST\n"
              "void f ( int n ) { char * p = malloc ( n ) ; }\n"
              "#else\n"
              "void f ( int n ) { char * p = malloc ( n ) ; free ( p ) ; }\n"
              "#endif\n")
    (d,) = flow(source)
    assert (d.kind, d.line) == (DefectKind.MISSING_RELEASE, 2)


def test_same_arity_overloads_are_both_walked_in_either_order():
    leaky = "void f ( int n ) { char * p = malloc ( n ) ; }\n"
    clean = "void f ( char * s ) { char * p = malloc ( 4 ) ; free ( p ) ; }\n"
    for source, line in ((leaky + clean, 1), (clean + leaky, 2)):
        (d,) = flow(source, "o.cc")
        assert (d.kind, d.line) == (DefectKind.MISSING_RELEASE, line)


def test_a_wrapper_result_stored_in_a_global_escapes():
    wrapper = "char * mk ( ) { return malloc ( 4 ) ; }\n"
    assert flow("char * g ;\n" + wrapper + "void f ( ) { g = mk ( ) ; }\n") == []
    # The same store as a direct allocation was always clean.
    assert flow("char * g ;\nvoid f ( ) { g = malloc ( 4 ) ; }\n") == []


def test_a_wrapper_result_stored_in_a_member_escapes():
    source = ("char * mk ( int n ) { return malloc ( n ) ; }\n"
              "class Buf {\n"
              "  char * data ;\n"
              "public:\n"
              "  Buf ( int n ) { data = mk ( n ) ; }\n"
              "  ~Buf ( ) { free ( data ) ; }\n"
              "};\n")
    assert full(source, "b.cc").defects == []


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

def _outcome(source: str):
    stream = tokenize(source, "v.c")
    root = build_scope_tree(stream)
    cfg = build_cfg(root.function_scopes[0], stream)
    return explore(cfg, catalog_patterns(None), {}), stream


def test_sequential_branches_fork_multiplicatively():
    # Each arm copies the block into its own pointer, so no two of the
    # four paths reach the same ownership state.
    source = (
        "void f ( int a , int b ) { char * p ; char * q ; char * r ; "
        "p = malloc ( 4 ) ; "
        "if ( a ) { q = p ; } if ( b ) { r = p ; } free ( p ) ; }")
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


def test_branches_that_touch_no_pointer_merge_and_count_their_paths():
    source = (
        "void f ( int a , int b ) { char * p ; p = malloc ( 4 ) ; "
        "if ( a ) { a = 1 ; } if ( b ) { b = 1 ; } free ( p ) ; }")
    outcome, stream = _outcome(source)
    assert len(outcome.variants) == 2
    assert sum(v.paths for v in outcome.variants) == 4
    assert not outcome.path_insensitive
    assert not any(d.code == "PathBudgetExceeded" for d in stream.diagnostics)


def test_a_merged_variant_reports_the_earliest_path_it_stands_for():
    # The leaking paths merge before the forks on b and c; the verdict
    # names the earliest of them, not the first in walk order.
    source = (
        "void f ( int a , int b , int c ) { char * p ; p = malloc ( 4 ) ; "
        "if ( a ) { free ( p ) ; } if ( b ) { n ++ ; } if ( c ) { n ++ ; } }")
    (d,) = flow(source)
    assert d.kind is DefectKind.PATH_MISSING_RELEASE
    assert d.path_c == [("a", "else"), ("b", "else"), ("c", "else")]


def _int_only_ifs(n: int) -> str:
    arms = " ".join(f"if ( c{i} ) {{ x = {i} ; }}" for i in range(n))
    params = " , ".join(f"int c{i}" for i in range(n))
    return f"void f ( {params} ) {{ int x ; {arms} }}"


def _int_only_switches(n: int) -> str:
    # Three arms and no default: four ways each.
    arms = " ".join(f"switch ( c{i} ) {{ case 1 : x = 1 ; break ; "
                    f"case 2 : x = 2 ; break ; case 3 : x = 3 ; break ; }}"
                    for i in range(n))
    params = " , ".join(f"int c{i}" for i in range(n))
    return f"void f ( {params} ) {{ int x ; {arms} }}"


def test_the_budget_counts_paths_not_distinct_states():
    # Every fork below merges back into one state, yet the budget of 64
    # is spent by paths: 2**6 fits it, 2**7 and 4**4 do not.
    assert PATH_BUDGET == 64
    for source, over in ((_int_only_ifs(6), False), (_int_only_ifs(7), True),
                         (_int_only_switches(3), False),
                         (_int_only_switches(4), True)):
        outcome, stream = _outcome(source)
        assert outcome.path_insensitive is over, source
        assert any(d.code == "PathBudgetExceeded"
                   for d in stream.diagnostics) is over, source


def test_the_merge_key_covers_every_field_the_walk_reads():
    # Variants merge when their state() is equal, so a field left out of
    # Machine.key() or Variant.state() would merge states that differ, and
    # a field kept in a type that does not hash would fail the merge.
    # A field added to either class fails here until it has a value below
    # that the key tells apart, or is named as one that merging forgets.
    ref = OwnerRef(REF_PARAM, 0)
    machine_changes = {
        "state": MemState.FREED, "owners": frozenset({7}),
        "frees": (FreeRecord(2, "free"),), "trace": ("Start->Alloced",),
        "escaped": True, "tainted": True,
        "partial_path": (("a", "then"),),
    }
    # state() pairs each key with the machine's id, which fixes alloc.
    assert (set(Machine.__slots__)
            == set(machine_changes) | {"id", "alloc"})

    def machine(mid: int = 1, **change) -> Machine:
        m = Machine(mid, AllocRecord(1, "malloc", 7))
        for name, value in change.items():
            setattr(m, name, value)
        return m

    def holding(*machines: Machine) -> MachineSet:
        out = MachineSet()
        for m in machines:
            out.add(m)
        return out

    variant_changes = {
        "machines": holding(machine()), "refs": {3: ref},
        "released": {ref: (2, "free")}, "lost": frozenset({ref}),
        "settled": frozenset({2}),
    }
    # Merging drops the path and order and adds up paths and earliest.
    assert (set(Variant.__slots__)
            == set(variant_changes) | {"path", "order", "paths", "earliest"})

    base = Variant(holding(machine()), {}, ())
    hash(base.state())
    for name, value in machine_changes.items():
        changed = Variant(holding(machine(**{name: value})), {}, ())
        hash(changed.state())
        assert changed.state() != base.state(), name
    assert (Variant(holding(machine(2)), {}, ()).state()
            != base.state())
    bare = Variant(MachineSet(), {}, ())
    for name, value in variant_changes.items():
        changed = Variant(MachineSet(), {}, ())
        setattr(changed, name, value)
        hash(changed.state())
        assert changed.state() != bare.state(), name


def test_a_variant_keeps_settled_blocks_as_ids_only():
    # Each pass of the innermost body allocates a block and frees it, and
    # the next pass's allocation ends the freed one.  A settled block
    # leaves the variant's machines, and only its id is kept.
    loops = "".join(f"while ( v{k} ) {{ " for k in range(5))
    params = " , ".join(f"int v{k}" for k in range(5))
    source = (f"void f ( {params} ) {{ char * p ; {loops}"
              f"p = malloc ( 4 ) ; free ( p ) ; {'} ' * 5}}}")
    outcome, _ = _outcome(source)
    assert all(m.state in (MemState.ALLOCED, MemState.FREED)
               for v in outcome.variants for m in v.machines.by_id.values())
    assert any(v.settled for v in outcome.variants)
    assert all(not (v.settled & v.machines.by_id.keys())
               for v in outcome.variants)
    assert flow(source) == []


def test_an_allocation_after_merged_forks_makes_one_machine():
    # The two arms of the fork on a merge before the fork on c, so two
    # variants reach the allocation where four paths do.  The block gets
    # two machines, not one per path, and so two claims, not four that
    # differ only in their path condition.
    source = (
        "void f ( int a , int b , int c ) { char * p ; "
        "if ( a ) { b ++ ; } if ( c ) { c ++ ; } p = malloc ( 4 ) ; "
        "if ( b ) { free ( p ) ; } }")
    defects = run([("f.c", source)]).summary_run.defects
    assert [(d.kind, d.line) for d in defects] == [
        (DefectKind.PATH_MISSING_RELEASE, 1)] * 2
    assert [d.path_c for d in defects] == [
        [("a", "then"), ("c", "then"), ("b", "else")],
        [("a", "else"), ("c", "else"), ("b", "else")]]


def test_budget_overflow_merges_and_degrades():
    # 8 sequential ifs give 256 paths against the budget of 64.
    arms = " ".join(f"if ( c{i} ) {{ x = {i} ; }}" for i in range(8))
    params = " , ".join(f"int c{i}" for i in range(8))
    source = f"void f ( {params} ) {{ int x ; {arms} }}"
    outcome, stream = _outcome(source)
    assert outcome.path_insensitive
    assert len(outcome.variants) <= PATH_BUDGET
    assert any(d.code == "PathBudgetExceeded" for d in stream.diagnostics)


def test_budget_merge_keeps_the_verdict_conservative():
    # Even fully merged, an unreleased block must still be claimed.
    arms = " ".join(f"if ( c{i} ) {{ x = {i} ; }}" for i in range(8))
    params = " , ".join(f"int c{i}" for i in range(8))
    source = (f"void f ( {params} ) {{ char * p ; int x ; "
              f"p = malloc ( 4 ) ; {arms} }}")
    outcome, _ = _outcome(source)
    assert outcome.path_insensitive
    assert len(outcome.variants) <= PATH_BUDGET
    defects = flow(source)
    assert [d.kind for d in defects] == [DefectKind.MISSING_RELEASE]


def test_a_budget_collapse_keeps_a_block_live_on_another_path():
    # Each if allocates, so no two paths merge and the walk reaches the
    # budget.  The block from line 3 is released only on the c arm; the
    # collapse keeps it live, so it is still claimed.
    arms = "".join(f"  if ( c{i} ) {{ q = malloc ( 1 ) ; free ( q ) ; }}\n"
                   for i in range(6))
    params = "".join(f" , int c{i}" for i in range(6))
    source = (f"void f ( int c{params} ) {{\n"
              "  char * p ; char * q ;\n"
              "  p = malloc ( 4 ) ;\n"
              "  if ( c ) { free ( p ) ; p = malloc ( 8 ) ; free ( p ) ; }\n"
              f"{arms}}}\n")
    outcome, _ = _outcome(source)
    assert outcome.path_insensitive
    assert [(d.kind, d.line) for d in flow(source)] == [
        (DefectKind.MISSING_RELEASE, 3)]


def test_a_budget_collapse_takes_no_flag_from_a_freed_path():
    # The block from line 3 escapes through use ( p ) only on the a arm,
    # where it is also freed.  The collapse keeps the live machine of the
    # else arm and must not take the escape from the freed one.
    ifs = "".join(f"  if ( b{k} ) {{ n = {k} ; }}\n" for k in range(7))
    params = "".join(f" , int b{k}" for k in range(7))
    source = (f"void f ( int a , int n{params} ) {{\n"
              "  char * p ;\n"
              "  p = malloc ( 4 ) ;\n"
              "  if ( a ) { use ( p ) ; free ( p ) ; p = 0 ; }\n"
              f"{ifs}}}\n")
    outcome, _ = _outcome(source)
    assert outcome.path_insensitive
    assert [(d.kind, d.line) for d in flow(source)] == [
        (DefectKind.MISSING_RELEASE, 3)]
