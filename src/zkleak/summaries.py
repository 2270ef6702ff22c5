"""Interprocedural behavior summaries.

Each function gets a list of (owner, action) entries describing how it
moves blocks across its boundary: allocating into the return value or a
global/member, releasing storage reachable from a parameter or global,
or doing something untrackable (Unknown).  Call sites replay the callee
entries against the caller's machines, so leaks and double releases
travel across function boundaries without inlining anything.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .defects import Defect, DefectKind, PathCond
from .graphs import Cfg, Fcg, FuncId, build_cfg, defined_successors, find_rings
from .interp import (ExploreOutcome, Interp, RecordedError,
                     ST_ACTIVE, ST_UNKNOWN, Variant, default_call_effect,
                     explore, finish_variants, symbol_index, PATH_BUDGET)
from .events import CallEvent, RETURN_SLOT
from .machine import AllocRecord, Machine, MachineError, MemState
from .patterns import Catalog, DefectPattern, compile_catalog
from .scopes import ScopeNode, SymbolEntry
from .tokens import TokenStream

ACTION_ALLOC = "alloc_to_extern"
ACTION_FREE = "extern_to_free"
ACTION_UNKNOWN = "unknown"

REF_PARAM = "param"
REF_RETURN = "return"
REF_GLOBAL = "global"


@dataclass(frozen=True)
class OwnerRef:
    kind: str  # REF_PARAM | REF_RETURN | REF_GLOBAL
    index: int = 0  # parameter position, or global/member var id

    def render(self) -> str:
        if self.kind == REF_PARAM:
            return f"param{self.index}"
        if self.kind == REF_RETURN:
            return "return"
        return f"g{self.index}"


@dataclass(frozen=True)
class BehaviorAction:
    kind: str  # ACTION_ALLOC | ACTION_FREE | ACTION_UNKNOWN
    fn: str = ""
    complete: bool = True

    def render(self) -> str:
        if self.kind == ACTION_ALLOC:
            return f"alloc({self.fn})"
        if self.kind == ACTION_FREE:
            suffix = "" if self.complete else " partial"
            return f"free({self.fn}){suffix}"
        return "unknown"


@dataclass
class SummaryEntry:
    owner: OwnerRef
    action: BehaviorAction
    path: List[PathCond] = field(default_factory=list)


@dataclass
class FunctionSummary:
    func: FuncId
    entries: List[SummaryEntry] = field(default_factory=list)
    ring_member: bool = False


def ring_summary(func: FuncId, scope: ScopeNode) -> FunctionSummary:
    entries = [SummaryEntry(OwnerRef(REF_PARAM, i),
                            BehaviorAction(ACTION_UNKNOWN))
               for i, p in enumerate(scope.params) if p.is_pointer]
    return FunctionSummary(func, entries, ring_member=True)


# ---------------------------------------------------------------------------
# Applying a summary at a call site
# ---------------------------------------------------------------------------

def apply_summary(interp: Interp, variant: Variant, ev: CallEvent,
                  summary: FunctionSummary) -> None:
    dst_handled = False
    same_file = ev.callee.file_name == interp.cfg.stream.file
    # Releases act on storage the caller already holds; apply them before
    # allocations so a reallocating wrapper does not collide with itself.
    order = {ACTION_FREE: 0, ACTION_UNKNOWN: 1, ACTION_ALLOC: 2}
    for entry in sorted(summary.entries, key=lambda e: order[e.action.kind]):
        ref, action = entry.owner, entry.action
        if ref.kind == REF_PARAM:
            var = ev.args[ref.index] if ref.index < len(ev.args) else None
            if var is None:
                continue
            _apply_to_var(interp, variant, ev, var, entry)
        elif ref.kind == REF_RETURN and action.kind == ACTION_ALLOC:
            if ev.dst is not None:
                interp.allocate(variant, ev.dst, action.fn, ev.line)
                dst_handled = True
            else:
                # result dropped on the floor: block with no owner at all
                machine = Machine(interp.new_machine_id(),
                                  AllocRecord(ev.line, action.fn, 0))
                machine.begin(f"{action.fn} @{ev.line} (result discarded)")
                machine.owners.clear()
                variant.machines.add(machine)
        elif ref.kind == REF_GLOBAL and same_file:
            if action.kind == ACTION_ALLOC:
                machine, errors = variant.machines.on_alloc(
                    interp.new_machine_id(), ref.index, action.fn, ev.line)
                for err in errors:
                    interp.record(err, variant)
                machine.mark_escaped()  # held by a global
            else:
                _apply_to_var(interp, variant, ev, ref.index, entry)
    if ev.dst is not None and ev.dst != RETURN_SLOT and not dst_handled:
        interp.repoint(variant, ev.dst, ev.line, "reassigned from a call result")


def _apply_to_var(interp: Interp, variant: Variant, ev: CallEvent,
                  var: int, entry: SummaryEntry) -> None:
    action = entry.action
    if action.kind == ACTION_UNKNOWN:
        for m in variant.machines.owning(var):
            m.taint()
        obj = interp._extern_obj(variant, var)
        if obj is not None:
            obj.status = ST_UNKNOWN
        return
    if action.kind != ACTION_FREE:
        return
    machines = variant.machines.owning(var)
    if machines:
        for m in machines:
            if action.complete:
                interp.record(m.release(action.fn, ev.line), variant, m.trace)
            elif m.state is MemState.ALLOCED and m.partial_path is None:
                m.partial_path = list(entry.path)
        return
    obj = interp._extern_obj(variant, var)
    if obj is None or obj.status != ST_ACTIVE:
        return
    if obj.freed:
        interp.record(MachineError(
            DefectKind.DOUBLE_FREE, ev.line,
            f"storage already released at line {obj.freed[0][0]} is "
            f"released again by {ev.callee.func_name}"), variant)
    obj.freed.append((ev.line, action.fn))


def make_call_handler(summaries: Dict[FuncId, FunctionSummary]):
    def handler(interp: Interp, variant: Variant, ev: CallEvent) -> None:
        summary = summaries.get(ev.callee)
        if summary is None:
            default_call_effect(interp, variant, ev)
        else:
            apply_summary(interp, variant, ev, summary)
    return handler


# ---------------------------------------------------------------------------
# Extracting a summary from explored variants
# ---------------------------------------------------------------------------

def extract_entries(cfg: Cfg, outcome: ExploreOutcome,
                    symbols: Dict[int, SymbolEntry]) -> List[SummaryEntry]:
    """Aggregate per-variant boundary effects into summary entries.

    Must run before the variants are finished: closing the machines
    rewrites the states this reads.
    """
    variants = outcome.variants
    alloc_refs: Dict[OwnerRef, str] = {}
    freed_by_variant: List[Dict[OwnerRef, str]] = []
    unknown_refs: Set[OwnerRef] = set()

    for variant in variants:
        freed: Dict[OwnerRef, str] = {}
        for _mid, machine in sorted(variant.machines.by_id.items()):
            if machine.state is not MemState.ALLOCED:
                continue
            for owner in sorted(machine.owners):
                ref: Optional[OwnerRef] = None
                if owner == RETURN_SLOT or (variant.returned_var is not None
                                            and owner == variant.returned_var):
                    ref = OwnerRef(REF_RETURN)
                else:
                    sym = symbols.get(owner)
                    if sym is not None and (sym.is_member or sym.is_global_or_static):
                        ref = OwnerRef(REF_GLOBAL, owner)
                if ref is not None:
                    alloc_refs.setdefault(ref, machine.alloc.fn)
        seen_keys: Set[int] = set()
        for _var, obj in sorted(variant.extern.items()):
            if obj.key in seen_keys:
                continue
            seen_keys.add(obj.key)
            ref = OwnerRef(REF_PARAM, obj.origin[1]) \
                if obj.origin[0] == "param" else OwnerRef(REF_GLOBAL, obj.origin[1])
            if obj.status == ST_UNKNOWN:
                unknown_refs.add(ref)
            elif obj.freed:
                freed[ref] = obj.freed[0][1]
        freed_by_variant.append(freed)

    entries: List[SummaryEntry] = []
    for ref in sorted(alloc_refs, key=lambda r: (r.kind, r.index)):
        entries.append(SummaryEntry(ref, BehaviorAction(ACTION_ALLOC,
                                                        alloc_refs[ref])))

    all_freed_refs: Set[OwnerRef] = set()
    for freed in freed_by_variant:
        all_freed_refs.update(freed)
    for ref in sorted(all_freed_refs, key=lambda r: (r.kind, r.index)):
        if ref in unknown_refs:
            continue
        hits = [freed.get(ref) for freed in freed_by_variant]
        complete = all(h is not None for h in hits)
        fn = next(h for h in hits if h is not None)
        path: List[PathCond] = []
        if not complete:
            missing = [v for v, freed in zip(variants, freed_by_variant)
                       if ref not in freed]
            path = list(min(missing, key=lambda v: v.order).path)
        entries.append(SummaryEntry(ref, BehaviorAction(ACTION_FREE, fn,
                                                        complete), path))

    for ref in sorted(unknown_refs, key=lambda r: (r.kind, r.index)):
        entries.append(SummaryEntry(ref, BehaviorAction(ACTION_UNKNOWN)))
    return entries


# ---------------------------------------------------------------------------
# Whole-program worklist
# ---------------------------------------------------------------------------

@dataclass
class SummaryRun:
    summaries: Dict[FuncId, FunctionSummary]
    defects: List[Defect]
    rings: List[List[FuncId]]
    cfgs: List[Cfg]  # one per function body, in source order


def _post_order(fcg: Fcg) -> List[FuncId]:
    """Callees before callers; cycles broken by the visited set."""
    graph = {f: sorted(callees)
             for f, callees in defined_successors(fcg).items()}
    order: List[FuncId] = []
    seen: Set[FuncId] = set()
    for start in sorted(graph):
        if start in seen:
            continue
        stack: List[Tuple[FuncId, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            node, idx = stack[-1]
            children = graph[node]
            if idx < len(children):
                stack[-1] = (node, idx + 1)
                child = children[idx]
                if child not in seen:
                    seen.add(child)
                    stack.append((child, 0))
            else:
                stack.pop()
                order.append(node)
    return order


def _to_defect(rec: RecordedError, cfg: Cfg) -> Defect:
    fid = cfg.func
    func = f"{fid.class_name}::{fid.func_name}" if fid.class_name else fid.func_name
    return Defect(kind=rec.error.kind, file=cfg.stream.file,
                  line=rec.error.line, func=func,
                  message=rec.error.message, path_c=list(rec.path),
                  trace=list(rec.trace))


def update_all(units: List[Tuple[ScopeNode, TokenStream]], fcg: Fcg,
               catalog: Union[Catalog, Sequence[DefectPattern]],
               strict: bool = False,
               budget: int = PATH_BUDGET) -> SummaryRun:
    """Walk every function body, callees first, and collect defects; the
    bodies that share a ``FuncId`` are walked at its post-order position."""
    catalog = compile_catalog(catalog)
    cfgs: List[Cfg] = []
    bodies: Dict[FuncId, List[Tuple[Cfg, Dict[int, SymbolEntry]]]] = {}
    for root, stream in units:
        symbols = symbol_index(root)
        for scope in root.function_scopes:
            cfg = build_cfg(scope, stream)
            cfgs.append(cfg)
            bodies.setdefault(cfg.func, []).append((cfg, symbols))

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
        defects.append(Defect(
            kind=DefectKind.RECURSIVE_CALL_RING,
            file=head.file_name,
            line=next(cfg.entry_line for cfg, _symbols in bodies[head]
                      if cfg.func_scope is fcg.defined[head]),
            func=(f"{head.class_name}::{head.func_name}"
                  if head.class_name else head.func_name),
            message=f"call ring never summarized precisely: {cycle}"))

    handler = make_call_handler(summaries)
    for fid in _post_order(fcg):
        for cfg, symbols in bodies[fid]:
            outcome = explore(cfg, catalog, fcg.call_sites(fid), symbols,
                              handler, strict, budget)
            if fid not in ring_members and cfg.func_scope is fcg.defined[fid]:
                entries = extract_entries(cfg, outcome, symbols)
                summaries[fid] = FunctionSummary(fid, entries)
            for rec in outcome.mid_errors + finish_variants(outcome):
                defects.append(_to_defect(rec, cfg))

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
