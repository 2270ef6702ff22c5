"""Ownership state machines.

The exhaustive section runs a tiny pointer-graph interpreter (each
variable points at the tracked block or elsewhere; assignment copies the
pointee) over every assignment sequence of length up to four, and the
machine's owner set must agree at every step.
"""

from __future__ import annotations

import itertools
import random

from zkleak.defects import DefectKind
from zkleak.machine import (
    FREE_MATCH,
    LEGAL_EDGES,
    AllocRecord,
    Machine,
    MachineSet,
    MemState,
)


def fresh(fn: str = "malloc", owner: int = 1, line: int = 10) -> Machine:
    m = Machine(1, AllocRecord(line, fn, owner))
    m.begin(f"{fn} @{line}")
    return m


# ---------------------------------------------------------------------------
# The transition table, one example per edge
# ---------------------------------------------------------------------------

def test_begin_is_start_to_alloced():
    m = fresh()
    assert m.state is MemState.ALLOCED
    assert m.owners == {1}
    assert m.trace[0].startswith("Start->Alloced")


def test_transfer_keeps_the_machine_alloced():
    m = fresh()
    assert m.assign(2, 1, line=11) is None
    assert m.state is MemState.ALLOCED
    assert m.owners == {1, 2}
    assert m.trace[-1].startswith("Alloced->Alloced")


def test_compatible_release_moves_to_freed():
    m = fresh()
    assert m.release("free", 12) is None
    assert m.state is MemState.FREED
    assert [f.fn for f in m.frees] == ["free"]


def test_transfer_after_release_is_legal():
    m = fresh()
    m.release("free", 12)
    assert m.assign(2, 1, line=13) is None
    assert m.state is MemState.FREED
    assert m.trace[-1].startswith("Freed->Freed")


def test_forgetting_a_freed_block_ends_quietly():
    m = fresh()
    m.release("free", 12)
    assert m.drop_owner(1, 13, "nulled") is None
    assert m.state is MemState.END


def test_losing_the_last_live_owner_is_an_error():
    m = fresh()
    err = m.drop_owner(1, 13, "nulled")
    assert err is not None and err.kind is DefectKind.POINTER_OWNERSHIP_LOST
    assert m.state is MemState.ERROR
    assert err.line == 13


def test_double_release_is_an_error():
    m = fresh()
    m.release("free", 12)
    err = m.release("free", 14)
    assert err is not None and err.kind is DefectKind.DOUBLE_FREE
    assert m.state is MemState.ERROR
    assert "line 12" in err.message


def test_mismatched_release_is_an_error():
    m = fresh("new")
    err = m.release("free", 12)
    assert err is not None and err.kind is DefectKind.MISMATCHED_ALLOC_FREE
    assert m.state is MemState.ERROR


def test_settled_machines_ignore_further_events():
    m = fresh()
    m.release("free", 12)
    m.release("free", 14)
    before = m.trace
    assert m.release("free", 15) is None
    assert m.assign(2, 1, 15) is None
    assert m.drop_owner(1, 15, "nulled") is None
    assert m.finish(16) is None
    assert m.trace == before


# ---------------------------------------------------------------------------
# finish()
# ---------------------------------------------------------------------------

def test_finish_after_release_is_clean():
    m = fresh()
    m.release("free", 12)
    assert m.finish(20) is None
    assert m.state is MemState.END


def test_finish_while_alloced_is_a_leak_at_the_alloc_line():
    m = fresh(line=10)
    err = m.finish(20)
    assert err is not None and err.kind is DefectKind.MISSING_RELEASE
    assert err.line == 10
    assert m.state is MemState.ERROR


def test_finish_tainted_closes_without_a_verdict():
    m = fresh()
    m.taint()
    assert m.finish(20) is None
    assert m.state is MemState.END
    assert m.trace[-1] == "Alloced->End tainted"


def test_finish_escaped_stays_alloced():
    m = fresh()
    m.mark_escaped()
    assert m.finish(20) is None
    assert m.state is MemState.ALLOCED


def test_finish_with_partial_path_names_the_weaker_kind():
    m = fresh(line=10)
    m.partial_path = [("c", "else")]
    err = m.finish(20)
    assert err is not None and err.kind is DefectKind.PATH_MISSING_RELEASE
    assert err.line == 10


# ---------------------------------------------------------------------------
# Release compatibility
# ---------------------------------------------------------------------------

def test_free_match_table():
    assert FREE_MATCH == {
        "free": frozenset({"malloc", "calloc", "realloc"}),
        "delete": frozenset({"new"}),
        "delete_array": frozenset({"new_array"}),
    }


def test_release_matrix():
    allocs = ["malloc", "calloc", "realloc", "new", "new_array"]
    frees = ["free", "delete", "delete_array"]
    for alloc_fn, free_fn in itertools.product(allocs, frees):
        m = fresh(alloc_fn)
        err = m.release(free_fn, 12)
        if alloc_fn in FREE_MATCH[free_fn]:
            assert err is None and m.state is MemState.FREED
        else:
            assert err is not None
            assert err.kind is DefectKind.MISMATCHED_ALLOC_FREE


# ---------------------------------------------------------------------------
# Exhaustive assignment sequences against the pointer-graph interpreter
# ---------------------------------------------------------------------------

_VARS = (1, 2, 3)
_OPS = [(d, s) for d in _VARS for s in _VARS if d != s]


def _all_sequences(max_len: int = 4):
    for length in range(max_len + 1):
        yield from itertools.product(_OPS, repeat=length)


def test_owner_sets_match_the_pointer_graph_on_all_short_sequences():
    count = 0
    for seq in _all_sequences():
        m = fresh(owner=1)
        points_at_block = {1}
        errors = []
        for step, (dst, src) in enumerate(seq):
            err = m.assign(dst, src, line=step)
            if err is not None:
                errors.append(err.kind)
            if src in points_at_block:
                points_at_block.add(dst)
            else:
                points_at_block.discard(dst)
            if points_at_block:
                assert not m.settled()
                assert m.owners == points_at_block, seq
                assert err is None
            else:
                assert m.settled(), seq
                assert errors == [DefectKind.POINTER_OWNERSHIP_LOST], seq
        count += 1
    assert count == 1555  # 6^0 + 6^1 + 6^2 + 6^3 + 6^4


def test_two_blocks_never_share_an_owner():
    for seq in _all_sequences():
        set_ = MachineSet()
        a, _ = set_.on_alloc(1, owner=1, fn="malloc", line=1)
        b, _ = set_.on_alloc(2, owner=2, fn="malloc", line=2)
        for step, (dst, src) in enumerate(seq):
            for m in set_.live():
                m.assign(dst, src, line=10 + step)
            live = set_.live()
            owned = [v for m in live for v in m.owners]
            assert len(owned) == len(set(owned)), seq


def test_strict_mode_differs_only_on_self_copy_destinations():
    m = fresh(owner=1)
    m.assign(2, 1, line=11)
    assert m.owners == {1, 2}

    s = fresh(owner=1)
    s.assign(2, 1, line=11, strict=True)
    assert s.owners == {1}

    # Overwriting an owner from a non-owner behaves the same either way.
    for strict in (False, True):
        m = fresh(owner=1)
        m.assign(2, 1, line=11)
        m.assign(2, 3, line=12, strict=strict)
        assert m.owners == {1}


# ---------------------------------------------------------------------------
# Random event sequences: trace discipline and replay
# ---------------------------------------------------------------------------

_ALLOC_FNS = ["malloc", "calloc", "realloc", "new", "new_array"]
_FREE_FNS = ["free", "delete", "delete_array"]


def drive(seed: int) -> tuple[Machine, list]:
    """A machine after a random event sequence, and the errors it returned."""
    rng = random.Random(seed)
    m = fresh(rng.choice(_ALLOC_FNS), owner=1, line=1)
    results = []
    for step in range(rng.randint(0, 10)):
        op = rng.randrange(6)
        if op == 0:
            results.append(m.assign(rng.choice(_VARS), rng.choice(_VARS), line=step))
        elif op == 1:
            results.append(m.drop_owner(rng.choice(_VARS), step, "nulled"))
        elif op == 2:
            results.append(m.release(rng.choice(_FREE_FNS), step))
        elif op == 3:
            m.mark_escaped()
        elif op == 4:
            m.taint()
        else:
            results.append(m.finish(step))
            break
    results.append(m.finish(99))
    return m, [err for err in results if err is not None]


def test_random_sequences_stay_on_legal_edges_and_replay():
    for seed in range(2500):
        m, errors = drive(seed)
        for entry in m.trace:
            edge = tuple(entry.split(" ", 1)[0].split("->"))
            assert edge in LEGAL_EDGES or entry.endswith("tainted"), entry
        assert m.replay() == (m.state.value, True)
        # the step into Error returns the one error, and nothing after it
        assert len(errors) == (m.state is MemState.ERROR)


def test_double_free_always_errors_regardless_of_taint_or_escape():
    for extra in ("none", "taint", "escape"):
        m = fresh()
        if extra == "taint":
            m.taint()
        if extra == "escape":
            m.mark_escaped()
        m.release("free", 12)
        err = m.release("free", 13)
        assert err is not None and err.kind is DefectKind.DOUBLE_FREE


def test_mismatch_always_errors_regardless_of_taint_or_escape():
    for extra in ("none", "taint", "escape"):
        m = fresh("new_array")
        if extra == "taint":
            m.taint()
        if extra == "escape":
            m.mark_escaped()
        err = m.release("delete", 13)
        assert err is not None and err.kind is DefectKind.MISMATCHED_ALLOC_FREE


def test_replay_flags_a_corrupted_trace():
    m = fresh()
    m.release("free", 12)
    m.trace += ("Start->Freed forged",)
    state, legal = m.replay()
    assert not legal


# ---------------------------------------------------------------------------
# MachineSet
# ---------------------------------------------------------------------------

def test_pointer_reuse_after_release_expires_quietly():
    set_ = MachineSet()
    old, _ = set_.on_alloc(1, owner=1, fn="malloc", line=1)
    old.release("free", 2)
    new, errors = set_.on_alloc(2, owner=1, fn="malloc", line=3)
    assert errors == []
    assert old.state is MemState.END
    assert new.state is MemState.ALLOCED
    assert set_.owning(1) == [new]


def test_pointer_reuse_while_live_loses_the_block():
    set_ = MachineSet()
    old, _ = set_.on_alloc(1, owner=1, fn="malloc", line=1)
    new, errors = set_.on_alloc(2, owner=1, fn="malloc", line=3)
    assert len(errors) == 1
    assert errors[0].kind is DefectKind.POINTER_OWNERSHIP_LOST
    assert old.state is MemState.ERROR


def test_clone_is_independent():
    set_ = MachineSet()
    m, _ = set_.on_alloc(1, owner=1, fn="malloc", line=1)
    twin = set_.clone()
    twin.by_id[1].release("free", 2)
    assert m.state is MemState.ALLOCED
    assert twin.by_id[1].state is MemState.FREED


def test_live_and_owning_are_ordered_by_id():
    set_ = MachineSet()
    b, _ = set_.on_alloc(2, owner=2, fn="malloc", line=2)
    a, _ = set_.on_alloc(1, owner=1, fn="malloc", line=1)
    assert set_.live() == [a, b]
    assert set_.owning(2) == [b]
