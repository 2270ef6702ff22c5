"""Interprocedural behavior summaries.

Each function gets a list of (``OwnerRef``, action) entries describing
how it moves blocks across its boundary: allocating into the return
value or a global/member, releasing storage reachable from a parameter
or global, or doing something untrackable (Unknown).  Call sites replay
the callee entries through the walk's own ``Interp.allocate``,
``Interp.release`` and ``Interp.taint``, so leaks and double releases
travel across function boundaries without inlining anything, and a call
applies the same ownership rules as the statements it stands for.
Entries are read from the records each variant writes when a release or
a loss of tracking happens, not from the bindings left at function exit.

A release that only happens on some callee paths is recorded as partial
together with the callee path that skips it; at the caller it marks the
machine instead of releasing it, which turns the eventual verdict into
the path-conditional leak kind carrying the callee's path.

Call rings (mutual or self recursion) are summarized as all-Unknown up
front and reported once per ring; members are still scanned for local
defects but never refined, so the worklist always terminates.

Every function body is walked, also when several share one ``FuncId``
(``#ifdef``/``#else`` twins, same-arity overloads): each reports its own
defects, and callers see the summary of the body ``fcg.defined`` keeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .defects import Defect, DefectKind, PathCond
from .graphs import (Cfg, Fcg, FuncId, build_cfg, defined_successors,
                     find_rings, func_id_of, post_order)
from .interp import (ExploreOutcome, Interp, OwnerRef, REF_GLOBAL,
                     REF_PARAM, REF_RETURN, Variant,
                     default_call_effect, explore, finish_variants, outlives)
from .events import Event, RETURN_SLOT
from .machine import AllocRecord, Machine, MemState
from .patterns import Catalog, DefectPattern, compile_catalog
from .scopes import ScopeNode
from .tokens import TokenStream

ACTION_ALLOC = "alloc_to_extern"
ACTION_FREE = "extern_to_free"
ACTION_UNKNOWN = "unknown"

class BehaviorAction:
    __slots__ = ("kind", "fn", "complete")

    def __init__(self, kind: str, fn: str = "", complete: bool = True) -> None:
        self.kind = kind  # ACTION_ALLOC | ACTION_FREE | ACTION_UNKNOWN
        self.fn, self.complete = fn, complete

    def render(self) -> str:
        if self.kind == ACTION_ALLOC:
            return f"alloc({self.fn})"
        if self.kind == ACTION_FREE:
            suffix = "" if self.complete else " partial"
            return f"free({self.fn}){suffix}"
        return "unknown"


class SummaryEntry:
    __slots__ = ("owner", "action", "path")

    def __init__(self, owner: OwnerRef, action: BehaviorAction,
                 path: Tuple[PathCond, ...] = ()) -> None:
        self.owner, self.action, self.path = owner, action, path


class FunctionSummary:
    __slots__ = ("func", "entries", "ring_member")

    def __init__(self, func: FuncId, entries: List[SummaryEntry],
                 ring_member: bool = False) -> None:
        self.func, self.entries, self.ring_member = func, entries, ring_member


def ring_summary(func: FuncId, scope: ScopeNode) -> FunctionSummary:
    entries = [SummaryEntry(OwnerRef(REF_PARAM, i),
                            BehaviorAction(ACTION_UNKNOWN))
               for i, p in enumerate(scope.params) if p.is_pointer]
    return FunctionSummary(func, entries, ring_member=True)


# ---------------------------------------------------------------------------
# Applying a summary at a call site
# ---------------------------------------------------------------------------

def apply_summary(interp: Interp, variant: Variant, ev: Event,
                  summary: FunctionSummary) -> None:
    dst_handled = False
    same_file = ev.callee.file_name == interp.cfg.stream.file
    # Releases act on storage the caller already holds; apply them before
    # allocations so a reallocating wrapper does not collide with itself.
    order = {ACTION_FREE: 0, ACTION_UNKNOWN: 1, ACTION_ALLOC: 2}
    for entry in sorted(summary.entries, key=lambda e: order[e.action.kind]):
        ref, action = entry.owner, entry.action
        if ref.kind == REF_RETURN:
            var = ev.var
            if var is None:
                # result dropped on the floor: block with no owner at all
                machine = Machine(interp.new_machine_id(),
                                  AllocRecord(ev.line, action.fn, 0))
                machine.begin(f"{action.fn} @{ev.line} (result discarded)")
                machine.owners = frozenset()
                variant.machines.add(machine)
                continue
            dst_handled = True
        elif ref.kind == REF_PARAM:
            var = ev.args[ref.index] if ref.index < len(ev.args) else None
            if var is None:
                continue
        elif same_file:
            var = ref.index
        else:
            continue
        if action.kind == ACTION_ALLOC:
            interp.allocate(variant, var, action.fn, ev.line)
        elif action.kind == ACTION_UNKNOWN:
            interp.taint(variant, var)
        else:
            _release(interp, variant, ev, var, entry)
    if ev.var is not None and ev.var != RETURN_SLOT and not dst_handled:
        interp.repoint(variant, ev.var, ev.line, "reassigned from a call result")


def _release(interp: Interp, variant: Variant, ev: Event, var: int,
             entry: SummaryEntry) -> None:
    if not entry.action.complete:
        machines = variant.machines.owning(var)
        if machines:
            # Freed only on some callee paths: the verdict at exit names one.
            for m in machines:
                if m.state is MemState.ALLOCED and m.partial_path is None:
                    m.partial_path = entry.path
            return
    interp.release(variant, var, entry.action.fn, ev.line, lambda first: (
        f"storage already released at line {first} is released again by "
        f"{ev.callee.func_name}"))


def make_call_handler(summaries: Dict[FuncId, FunctionSummary]):
    def handler(interp: Interp, variant: Variant, ev: Event) -> None:
        summary = summaries.get(ev.callee)
        if summary is None:
            default_call_effect(interp, variant, ev)
        else:
            apply_summary(interp, variant, ev, summary)
    return handler


# ---------------------------------------------------------------------------
# Extracting a summary from explored variants
# ---------------------------------------------------------------------------

def extract_entries(outcome: ExploreOutcome) -> List[SummaryEntry]:
    """Aggregate per-variant boundary effects into summary entries.

    Must run before the variants are finished: closing the machines
    rewrites the states this reads.
    """
    variants = outcome.variants
    alloc_refs: Dict[OwnerRef, str] = {}
    for variant in variants:
        for _mid, machine in sorted(variant.machines.by_id.items()):
            if machine.state is not MemState.ALLOCED:
                continue
            for owner in sorted(machine.owners):
                ref: Optional[OwnerRef] = None
                if owner == RETURN_SLOT:
                    ref = OwnerRef(REF_RETURN)
                elif outlives(outcome.cfg.stream, owner):
                    ref = OwnerRef(REF_GLOBAL, owner)
                if ref is not None:
                    alloc_refs.setdefault(ref, machine.alloc.fn)
    unknown_refs: Set[OwnerRef] = set().union(*(v.lost for v in variants))

    entries: List[SummaryEntry] = []
    for ref in sorted(alloc_refs, key=lambda r: (r.kind, r.index)):
        entries.append(SummaryEntry(ref, BehaviorAction(ACTION_ALLOC,
                                                        alloc_refs[ref])))

    freed_refs = {ref for v in variants for ref in v.released} - unknown_refs
    for ref in sorted(freed_refs, key=lambda r: (r.kind, r.index)):
        hits = [v.released.get(ref) for v in variants]
        fn = next(h for h in hits if h is not None)[1]
        missing = [v for v, h in zip(variants, hits) if h is None]
        path = min(v.witness() for v in missing)[1] if missing else ()
        entries.append(SummaryEntry(ref, BehaviorAction(
            ACTION_FREE, fn, not missing), path))

    for ref in sorted(unknown_refs, key=lambda r: (r.kind, r.index)):
        entries.append(SummaryEntry(ref, BehaviorAction(ACTION_UNKNOWN)))
    return entries


# ---------------------------------------------------------------------------
# Whole-program worklist
# ---------------------------------------------------------------------------

class SummaryRun:
    """What ``update_all`` leaves: every summary, the walk's defects, the
    call rings, and the walked CFG of each member function, the bodies
    the class-shape rules read.  Any other body's CFG is dropped after its
    walk; ``build_cfg(scope, stream)`` builds it again."""

    __slots__ = ("summaries", "defects", "rings", "cfgs")

    def __init__(self, summaries: Dict[FuncId, FunctionSummary],
                 defects: List[Defect], rings: List[List[FuncId]],
                 cfgs: List[Cfg]) -> None:
        self.summaries, self.defects, self.rings = summaries, defects, rings
        self.cfgs = cfgs  # member-function bodies, in walk order


def update_all(units: List[Tuple[ScopeNode, TokenStream]], fcg: Fcg,
               catalog: Union[Catalog, Sequence[DefectPattern]],
               strict: bool = False) -> SummaryRun:
    """Walk every function body, callees first, and collect defects; the
    bodies that share a ``FuncId`` are walked at its post-order position.
    Each body's CFG is built right before its walk and, unless it belongs
    to a class member, dropped right after it."""
    catalog = compile_catalog(catalog)
    bodies: Dict[FuncId, List[Tuple[ScopeNode, TokenStream]]] = {}
    for root, stream in units:
        for scope in root.function_scopes:
            bodies.setdefault(func_id_of(scope, stream), []).append(
                (scope, stream))

    summaries: Dict[FuncId, FunctionSummary] = {}
    defects: List[Defect] = []

    rings = find_rings(fcg)
    ring_members: Set[FuncId] = set()
    for ring in rings:
        ring_members.update(ring)
        for member in ring:
            summaries[member] = ring_summary(member, fcg.defined[member])
        head = ring[0]
        cycle = " -> ".join(f.render() for f in ring + [head])
        scope = fcg.defined[head]
        defects.append(Defect(
            kind=DefectKind.RECURSIVE_CALL_RING,
            file=head.file_name,
            line=next(stream.line[scope.token_begin]
                      for body, stream in bodies[head] if body is scope),
            func=head.qualified(),
            message=f"call ring never summarized precisely: {cycle}"))

    cfgs: List[Cfg] = []
    handler = make_call_handler(summaries)
    for fid in post_order(defined_successors(fcg)):
        for scope, stream in bodies[fid]:
            cfg = build_cfg(scope, stream)
            outcome = explore(cfg, catalog, fcg.call_sites(fid), handler,
                              strict)
            if fid not in ring_members and scope is fcg.defined[fid]:
                entries = extract_entries(outcome)
                summaries[fid] = FunctionSummary(fid, entries)
            defects += outcome.mid_errors + finish_variants(outcome)
            if scope.owner_class:
                cfgs.append(cfg)
            del cfg, outcome  # so the next build does not overlap this one

    return SummaryRun(summaries, defects, rings, cfgs)


def dump_summaries(run: SummaryRun) -> str:
    lines = []
    for fid in sorted(run.summaries):
        summary = run.summaries[fid]
        if not summary.entries:
            lines.append(f"{fid.render()} | -")
        for entry in summary.entries:
            path = ",".join(f"{guard} -> {arm}" for guard, arm in entry.path) or "-"
            lines.append(f"{fid.render()} | {entry.owner.render()} | "
                         f"{entry.action.render()} | {path}")
    return "\n".join(lines)
