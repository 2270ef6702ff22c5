"""Path-sensitive walk of a function's structure plan.

Each traversal variant carries a machine per live block (Alloced or
Freed), its path condition (branch tags with guard text) and a map from
variables to the caller-owned storage they reach, named by its
``OwnerRef`` (a pointer parameter by position, a global or member by var
id).  A global or member reaches its own storage, bound on first read;
once rebound it reaches nothing.  Each variant also keeps two records
written at the moment of the effect: the first release of each
``OwnerRef``, and the ``OwnerRef``s that can no longer be tracked
(advanced by arithmetic, or passed to an unknown callee after the path
has read them).  Summary extraction reads those records, so rebinding a
variable after its release does not erase the release.  A release of
storage that can no longer be tracked is still recorded, so a second one
is a double release.  No event moves a block that has settled (End or
Error), so after each event such a block leaves the machines and the
variant keeps only its id: a fork copies, and a merge key compares, live
blocks alone.

Before every fork, variants whose ownership state is equal (all but
the path condition and the order) merge into one, as in ESP's property
simulation (Das, Lerner & Seigle, PLDI 2002).  The first of them in walk
order survives, so a defect found mid-walk keeps the path that reached
it first.  The survivor counts the paths it stands for, and carries the
order and path of the earliest of them, which exit verdicts and summary
entries report.  The budget counts paths, not variants: when a fork
would push the paths past it, the current set is first collapsed
pessimistically (a block live on any arm stays live, and the count
restarts at one) and a diagnostic marks the function as partially
path-insensitive from there on.

Each step of the walk returns the variants that flow on to the next
statement; the others go straight to their targets.  A ``return`` sends
its variants to the function's exit, a ``break`` to the innermost loop
or ``switch`` (they flow on after it), and a ``continue`` to the current
pass of the innermost loop (they rejoin before the loop's trailer).  A
``break`` or ``continue`` with no such target reaches the function's exit.
A ``return v`` adds the return slot to the owners of each block ``v``
owns there, as returning an allocation does, so what a function returns
is read from the owners alone.
Loop bodies run twice so second-iteration effects (double release,
pointer reuse) surface, then the walk leaves the loop.  Code after a
``return`` is still scanned with a fresh variant so defects in
unreachable tails are not silently skipped.

A variant's path, like a machine's owners, releases and trace, is a
value that a write replaces and never changes in place.  A fork
therefore copies none of them, and a finding is recorded straight into
a ``Defect`` whose path and trace are a snapshot.

Calls are delegated to an injected handler; without one, every callee
is treated as unknown: pointer arguments become tainted and a call
result overwrites its destination.  A handler replays a callee through
``allocate``, ``release`` and ``taint``, the same rules the walk applies
to the events of the function's own statements.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from .defects import Defect, DefectKind, PathCond, Record
from .events import Event, RETURN_SLOT, node_events
from .graphs import Cfg, FuncId, PlanItem
from .machine import Machine, MachineError, MachineSet, MemState
from .patterns import Catalog, DefectPattern, compile_catalog
from .tokens import Diagnostic, TokenStream

PATH_BUDGET = 64

REF_PARAM = "param"
REF_RETURN = "return"
REF_GLOBAL = "global"


class OwnerRef(Record):
    """Storage that outlives the function: who owns it across the call."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int = 0) -> None:
        self.kind = kind  # REF_PARAM | REF_RETURN | REF_GLOBAL
        self.index = index  # parameter position, or global/member var id

    def render(self) -> str:
        if self.kind == REF_PARAM:
            return f"param{self.index}"
        if self.kind == REF_RETURN:
            return "return"
        return f"g{self.index}"


class Variant:
    __slots__ = ("machines", "refs", "path", "order", "released", "lost",
                 "settled", "paths", "earliest")

    def __init__(self, machines: MachineSet, refs: Dict[int, Optional[OwnerRef]],
                 path: Tuple[PathCond, ...], order: int = 0,
                 released: Optional[Dict[OwnerRef, Tuple[int, str]]] = None,
                 lost: FrozenSet[OwnerRef] = frozenset(),
                 settled: FrozenSet[int] = frozenset(), paths: int = 1) -> None:
        self.machines = machines
        # var id -> the caller-owned storage it reaches; None once a global
        # or member is rebound (an absent one is unread and reaches its own).
        self.refs = refs
        self.path, self.order = path, order
        # Replaced on write, never changed in place, so clones share them.
        self.released = {} if released is None else released
        self.lost = lost
        # ids of the blocks that settled (End or Error) on this path
        self.settled = settled
        self.paths = paths  # paths of the function this variant stands for
        # (order, path) of the earliest of them, when it is not this one's own
        self.earliest: Optional[Tuple[int, Tuple[PathCond, ...]]] = None

    def clone(self, order: int) -> "Variant":
        return Variant(self.machines.clone(), dict(self.refs), self.path,
                       order, self.released, self.lost, self.settled,
                       self.paths)

    def follow(self, tag: PathCond) -> None:
        self.path += (tag,)
        if self.earliest is not None:
            order, path = self.earliest
            self.earliest = (order, path + (tag,))

    def retire(self) -> None:
        """Move the blocks that settled out of the machines, as ids."""
        done = [mid for mid, m in self.machines.by_id.items() if m.settled()]
        if done:
            self.settled = self.settled.union(done)
            for mid in done:
                del self.machines.by_id[mid]

    def witness(self) -> Tuple[int, Tuple[PathCond, ...]]:
        """(order, path) of the earliest path this variant stands for."""
        return self.earliest or (self.order, self.path)

    def state(self) -> tuple:
        """All the walk and the verdicts read but the path and the order."""
        return (tuple((mid, m.key())
                      for mid, m in sorted(self.machines.by_id.items())),
                frozenset(self.refs.items()), frozenset(self.released.items()),
                self.lost, self.settled)


class ExploreOutcome:
    __slots__ = ("variants", "mid_errors", "path_insensitive", "cfg")

    def __init__(self, variants: List[Variant], mid_errors: List[Defect],
                 path_insensitive: bool, cfg: Cfg) -> None:
        self.variants, self.mid_errors = variants, mid_errors
        self.path_insensitive, self.cfg = path_insensitive, cfg


CallHandler = Callable[["Interp", Variant, Event], None]


def outlives(stream: TokenStream, var: int) -> bool:
    """Whether *var* is a global, static or member: stored beyond the call."""
    sym = stream.var(var)
    return sym is not None and (sym.is_member or sym.is_global_or_static)


class Interp:
    def __init__(self, cfg: Cfg, catalog: Catalog,
                 site_map: Dict[int, FuncId],
                 call_handler: Optional[CallHandler] = None,
                 strict: bool = False) -> None:
        self.cfg = cfg
        self.catalog = catalog
        self.site_map = site_map
        self.call_handler = call_handler
        self.strict = strict
        self._machine_ids = count(1)
        self._orders = count(1)
        self._param_refs = {p.var_id: OwnerRef(REF_PARAM, i)
                            for i, p in enumerate(cfg.func_scope.params)
                            if p.is_pointer}
        self.mid_errors: Dict[Tuple[DefectKind, int], Defect] = {}
        self.path_insensitive = False
        # Where return, break and continue send their variants; a loop or
        # switch pushes its own break list, a loop pass its continue list.
        self.finished: List[Variant] = []
        self.breaks: List[List[Variant]] = [[]]
        self.continues: List[List[Variant]] = [[]]

    # -- bookkeeping ----------------------------------------------------------

    def new_machine_id(self) -> int:
        return next(self._machine_ids)

    def record(self, err: Optional[MachineError], variant: Variant,
               trace: Tuple[str, ...] = ()) -> None:
        if err is not None and (err.kind, err.line) not in self.mid_errors:
            self.mid_errors[err.kind, err.line] = _defect(
                self.cfg, err, variant.path, trace)

    def _fresh_variant(self, path: Tuple[PathCond, ...]) -> Variant:
        return Variant(MachineSet(), dict(self._param_refs), path,
                       next(self._orders))

    def _fork(self, variant: Variant, tag: PathCond) -> Variant:
        twin = variant.clone(next(self._orders))
        twin.follow(tag)
        return twin

    # -- top-level ------------------------------------------------------------

    def run(self) -> ExploreOutcome:
        flow = self._run_seq(self.cfg.structure, [self._fresh_variant(())])
        if self.path_insensitive:
            self.cfg.stream.diagnostics.append(Diagnostic(
                "PathBudgetExceeded",
                f"variant budget ({PATH_BUDGET}) exceeded in "
                f"{self.cfg.func.func_name}; merged paths pessimistically",
                self.cfg.stream.file, self.cfg.entry_line, 1))
        # stray break/continue outside a loop just fall off the end
        variants = (self.finished + flow + self.breaks[0]
                    + self.continues[0])
        return ExploreOutcome(variants, list(self.mid_errors.values()),
                              self.path_insensitive, self.cfg)

    # -- structure walk -------------------------------------------------------

    def _run_seq(self, items: list, flow: List[Variant]) -> List[Variant]:
        for item in items:
            if not flow:
                flow = [self._fresh_variant((("", "dead"),))]
            if _paths(flow) > PATH_BUDGET:
                self.path_insensitive = True
                flow = [self._merge_all(flow)]
            flow = self._run_item(item, flow)
        return flow

    def _run_item(self, item: PlanItem,
                  variants: List[Variant]) -> List[Variant]:
        kind = item.kind
        if kind in ("seq", "return"):
            for v in variants:
                self._apply_node(v, item.node)
            if kind == "seq":
                return variants
            self.finished.extend(variants)
        elif kind in ("break", "continue"):
            (self.breaks if kind == "break" else self.continues)[-1].extend(variants)
        else:
            return _BRANCHES[kind](self, item, variants)
        return []

    def _split(self, variants: List[Variant], ways: int) -> List[Variant]:
        variants = self._merge_equal(variants)
        if _paths(variants) * ways > PATH_BUDGET:
            self.path_insensitive = True
            return [self._merge_all(variants)]
        return variants

    def _enter(self, item: PlanItem, variants: List[Variant],
               ways: int) -> Tuple[List[Variant], str]:
        """The variants past a head node, merged for a *ways* fork, and its guard."""
        for v in variants:
            self._apply_node(v, item.node)
        return self._split(variants, ways), self.cfg.node(item.node).guard_text

    def _run_if(self, item: PlanItem, variants: List[Variant]) -> List[Variant]:
        variants, guard = self._enter(item, variants, 2)
        (then_tag, then_items), (else_tag, else_items) = item.arms
        then_in = [self._fork(v, (guard, then_tag)) for v in variants]
        for v in variants:
            v.follow((guard, else_tag))
        return (self._run_seq(then_items, then_in)
                + self._run_seq(else_items, variants))

    def _run_loop(self, item: PlanItem,
                  variants: List[Variant]) -> List[Variant]:
        if item.kind == "dowhile":
            flow = variants
            skipping: List[Variant] = []
        else:
            variants, guard = self._enter(item, variants, 2)
            flow = [self._fork(v, (guard, "loop")) for v in variants]
            skipping = variants
        arms = dict(item.arms)

        broken: List[Variant] = []
        self.breaks.append(broken)
        for _pass in range(2):
            continued: List[Variant] = []
            self.continues.append(continued)
            flow = self._run_seq(arms["body"], flow)
            self.continues.pop()
            # continue rejoins before the trailer
            flow = self._run_seq(arms.get("trailer", []), flow + continued)
            for v in flow:
                self._apply_node(v, item.node)
            if _paths(flow) > PATH_BUDGET:
                self.path_insensitive = True
                flow = [self._merge_all(flow)]
        self.breaks.pop()
        return skipping + flow + broken

    def _run_switch(self, item: PlanItem,
                    variants: List[Variant]) -> List[Variant]:
        has_default = any(tag == "default" for tag, _items in item.arms)
        ways = len(item.arms) + (0 if has_default else 1)
        variants, guard = self._enter(item, variants, max(ways, 1))

        broken: List[Variant] = []  # break leaves the switch, not a loop
        self.breaks.append(broken)
        fall: List[Variant] = []
        for tag, items in item.arms:
            fall = self._run_seq(
                items, [self._fork(v, (guard, tag)) for v in variants] + fall)
        self.breaks.pop()
        return fall + broken + ([] if has_default else variants)

    # -- merging --------------------------------------------------------------

    @staticmethod
    def _merge_equal(variants: List[Variant]) -> List[Variant]:
        """One variant per ownership state, the first of each in list
        order, standing for the paths of all and carrying the earliest."""
        if len(variants) < 2:
            return variants
        kept: Dict[tuple, Variant] = {}
        for v in variants:
            survivor = kept.setdefault(v.state(), v)
            if survivor is not v:
                survivor.paths += v.paths
                if v.witness()[0] < survivor.witness()[0]:
                    survivor.earliest = v.witness()
        return list(kept.values())

    def _merge_all(self, variants: List[Variant]) -> Variant:
        base = variants[0]
        for other in variants[1:]:
            self._merge_into(base, other)
        base.paths, base.earliest = 1, None
        return base

    def _merge_into(self, base: Variant, other: Variant) -> None:
        for mid, m in other.machines.by_id.items():
            mine = base.machines.by_id.get(mid)
            # A live block outweighs a settled one, and Alloced outweighs
            # Freed, whose flags say nothing of an allocated block.
            if mine is None or (m.state is MemState.ALLOCED
                                and mine.state is MemState.FREED):
                base.machines.by_id[mid] = m
            elif mine.state is m.state:
                mine.owners |= m.owners
                mine.escaped = mine.escaped or m.escaped
                mine.tainted = mine.tainted or m.tainted
                if mine.partial_path is None:
                    mine.partial_path = m.partial_path
        # Keep what either side reaches; an absent global reaches its own
        # storage, so it outweighs a rebound one.
        for var, ref in other.refs.items():
            if ref is not None and base.refs.get(var) is None:
                base.refs[var] = ref
        for var in [v for v, r in base.refs.items()
                    if r is None and v not in other.refs]:
            del base.refs[var]
        if other.released:
            base.released = {**other.released, **base.released}
        if other.lost:
            base.lost |= other.lost
        base.settled = (base.settled | other.settled).difference(
            base.machines.by_id)

    # -- event application ----------------------------------------------------

    def _apply_node(self, variant: Variant, node_id: int) -> None:
        node = self.cfg.node(node_id)
        for ev in node_events(self.cfg, node, self.catalog, self.site_map):
            _EFFECTS[ev.kind](self, variant, ev)
            variant.retire()

    def allocate(self, variant: Variant, owner: int, fn: str,
                 line: int) -> None:
        """A new block owned by *owner*, allocated here or by a callee."""
        machine, errors = variant.machines.on_alloc(
            self.new_machine_id(), owner, fn, line)
        for err in errors:
            self.record(err, variant)
        if owner == RETURN_SLOT or outlives(self.cfg.stream, owner):
            machine.mark_escaped()  # stored beyond the function
        if owner != RETURN_SLOT:
            self._unbind(variant, owner)

    def release(self, variant: Variant, var: int, fn: str, line: int,
                again: Callable[[int], str]) -> None:
        """Release what *var* holds: the blocks it owns, else the
        caller-owned storage it reaches.  *again* words a second release
        of that storage, given the line of the first."""
        owners = variant.machines.owning(var)
        if owners:
            for m in owners:
                self.record(m.release(fn, line), variant, m.trace)
            return
        ref = self._ref(variant, var)
        if ref is None:
            return
        first = variant.released.get(ref)
        if first is not None:
            self.record(MachineError(DefectKind.DOUBLE_FREE, line,
                                     again(first[0])), variant)
        else:
            variant.released = {**variant.released, ref: (line, fn)}

    def taint(self, variant: Variant, var: int,
              seen_only: bool = False) -> None:
        """*var* went where it can no longer be followed.  With *seen_only*
        (an unknown callee) a global or member this path has not read yet
        keeps its storage."""
        for m in variant.machines.owning(var):
            m.taint()
        ref = variant.refs.get(var) if seen_only else self._ref(variant, var)
        if ref is not None and ref not in variant.lost:
            variant.lost = variant.lost | {ref}

    def _do_free(self, variant: Variant, ev: Event) -> None:
        self.release(variant, ev.var, ev.fn, ev.line, lambda first: (
            f"{ev.name} released again (first released at line {first})"))

    def _do_assign(self, variant: Variant, ev: Event) -> None:
        for m in variant.machines.live():
            self.record(m.assign(ev.var, ev.src, ev.line, self.strict),
                        variant, m.trace)
        ref = (None if variant.machines.owning(ev.src)
               else self._ref(variant, ev.src))
        if ref is None:
            self._unbind(variant, ev.var)
        else:
            variant.refs[ev.var] = ref

    def _do_arith(self, variant: Variant, ev: Event) -> None:
        for m in variant.machines.owning(ev.var):
            self.record(m.drop_owner(ev.var, ev.line,
                                     "advanced by pointer arithmetic"),
                        variant, m.trace)
        self.taint(variant, ev.var)  # no block owns it any more

    def _do_return(self, variant: Variant, ev: Event) -> None:
        for m in variant.machines.owning(ev.var):
            m.owners |= {RETURN_SLOT}  # as if returned where allocated
            m.mark_escaped()

    def _ref(self, variant: Variant, var: int) -> Optional[OwnerRef]:
        """What *var* reaches; a global or member is bound on first read."""
        if var in variant.refs:
            return variant.refs[var]
        if not outlives(self.cfg.stream, var):
            return None
        ref = variant.refs[var] = OwnerRef(REF_GLOBAL, var)
        return ref

    def _unbind(self, variant: Variant, var: int) -> None:
        if outlives(self.cfg.stream, var):
            variant.refs[var] = None
        else:
            variant.refs.pop(var, None)

    def repoint(self, variant: Variant, var: int, line: int, cause: str) -> None:
        """The variable now holds an unrelated value (null, a call result)."""
        for m in variant.machines.owning(var):
            self.record(m.drop_owner(var, line, cause), variant, m.trace)
        self._unbind(variant, var)


def _paths(variants: List[Variant]) -> int:
    return sum(v.paths for v in variants)


def _defect(cfg: Cfg, err: MachineError, path: Sequence[PathCond],
            trace: Sequence[str]) -> Defect:
    return Defect(kind=err.kind, file=cfg.stream.file, line=err.line,
                  func=cfg.func.qualified(), message=err.message,
                  path_c=list(path), trace=list(trace))


def default_call_effect(interp: Interp, variant: Variant, ev: Event) -> None:
    """Unknown callee: taint pointer arguments, result overwrites dst."""
    for var_id in ev.args:
        if var_id is None:
            continue
        sym = interp.cfg.stream.var(var_id)
        if sym is None or sym.is_pointer:
            interp.taint(variant, var_id, seen_only=True)
    if ev.var is not None and ev.var != RETURN_SLOT:
        interp.repoint(variant, ev.var, ev.line, "reassigned from a call result")


# How the walk runs each kind of branch or loop.
_BRANCHES = {"if": Interp._run_if, "switch": Interp._run_switch,
             "while": Interp._run_loop, "for": Interp._run_loop,
             "dowhile": Interp._run_loop}

# What each kind of event does to a variant.
_EFFECTS: Dict[str, Callable[[Interp, Variant, Event], None]] = {
    "alloc": lambda interp, v, ev: interp.allocate(v, ev.var, ev.fn, ev.line),
    "free": Interp._do_free,
    "assign": Interp._do_assign,
    "null": lambda interp, v, ev: interp.repoint(v, ev.var, ev.line, "set to null"),
    "arith": Interp._do_arith,
    "return": Interp._do_return,
    "call": lambda interp, v, ev: (interp.call_handler or default_call_effect)(
        interp, v, ev),
}


def explore(cfg: Cfg, catalog: Union[Catalog, Sequence[DefectPattern]],
            site_map: Dict[int, FuncId],
            call_handler: Optional[CallHandler] = None,
            strict: bool = False) -> ExploreOutcome:
    return Interp(cfg, compile_catalog(catalog), site_map, call_handler,
                  strict).run()


def finish_variants(outcome: ExploreOutcome) -> List[Defect]:
    """Close every live machine at function exit and classify leaks.

    A block is clean on a path whose variant holds it as settled, or
    whose machine finishes clean.  A block leaking on every path that
    holds it is an outright missing release (empty path condition).
    Leaking on only some paths downgrades to the path-conditional kind,
    tagged with the first offending variant's path.  Partial releases
    recorded from callee summaries keep the callee's own path condition.
    """
    clean: Counter = Counter()  # block id -> variants it is clean on
    leaking: Dict[int, List[Tuple[Variant, Machine, MachineError]]] = {}
    for variant in outcome.variants:
        clean.update(variant.settled)
        for mid, machine in variant.machines.by_id.items():
            err = machine.finish(outcome.cfg.exit_line)
            if err is None:
                clean[mid] += 1
            else:
                leaking.setdefault(mid, []).append((variant, machine, err))

    results: List[Defect] = []
    for mid, leaks in sorted(leaking.items()):
        first_v, first_m, first_e = min(leaks, key=lambda t: t[0].witness()[0])
        err, path = first_e, ()
        if first_e.kind is DefectKind.PATH_MISSING_RELEASE:
            path = first_m.partial_path or ()
        elif clean[mid]:
            err = MachineError(
                DefectKind.PATH_MISSING_RELEASE, first_e.line,
                f"block allocated at line {first_e.line} is released on "
                f"some paths but not on all")
            path = first_v.witness()[1]
        results.append(_defect(outcome.cfg, err, path, first_m.trace))
    return results
