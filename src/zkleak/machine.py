"""Per-allocation ownership state machines.

Each allocation site instance gets one machine tracking which pointer
variables currently own the block.  Legal lifecycle edges:

    Start->Alloced    allocation
    Alloced->Alloced  ownership transfer while live
    Alloced->Freed    compatible release
    Freed->Freed      transfer after release
    Freed->End        benign forget after release
    Alloced->Error    leak, ownership loss, mismatched release
    Freed->Error      double release

A machine whose block was passed to an unknown function is *tainted*:
leak verdicts are suppressed for it (the callee may have kept or freed
the block) but double-free and mismatch still fire.  A machine whose
block escaped through ``return`` similarly never produces a leak here;
responsibility moves to the caller via the summary layer.  A machine in
End or Error ignores every further event, and the path walk keeps only
the id of such a settled block.

A machine's owners, releases, trace and partial path are values that a
write replaces and never changes in place.  A fork therefore copies
none of them, the merge key is made of them as they are, and a trace
that leaves the machine with a finding is a snapshot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .defects import DefectKind, PathCond, Record

from enum import Enum


class MemState(Enum):
    START = "Start"
    ALLOCED = "Alloced"
    FREED = "Freed"
    END = "End"
    ERROR = "Error"


LEGAL_EDGES: FrozenSet[Tuple[str, str]] = frozenset({
    ("Start", "Alloced"),
    ("Alloced", "Alloced"),
    ("Alloced", "Freed"),
    ("Freed", "Freed"),
    ("Freed", "End"),
    ("Alloced", "Error"),
    ("Freed", "Error"),
})

# release label -> allocation labels it may legally pair with
FREE_MATCH: Dict[str, FrozenSet[str]] = {
    "free": frozenset({"malloc", "calloc", "realloc"}),
    "delete": frozenset({"new"}),
    "delete_array": frozenset({"new_array"}),
}


class AllocRecord:
    __slots__ = ("line", "fn", "owner")

    def __init__(self, line: int, fn: str, owner: int) -> None:
        self.line = line
        self.fn = fn  # malloc | calloc | realloc | new | new_array
        self.owner = owner  # var id assigned at the allocation


class FreeRecord(Record):
    __slots__ = ("line", "fn")

    def __init__(self, line: int, fn: str) -> None:
        self.line, self.fn = line, fn  # fn: free | delete | delete_array


class MachineError:
    __slots__ = ("kind", "line", "message")

    def __init__(self, kind: DefectKind, line: int, message: str) -> None:
        self.kind, self.line, self.message = kind, line, message


class Machine:
    __slots__ = ("id", "alloc", "state", "owners", "frees", "trace",
                 "escaped", "tainted", "partial_path")

    def __init__(self, id: int, alloc: AllocRecord, state: MemState = MemState.START,
                 owners: FrozenSet[int] = frozenset(),
                 frees: Tuple[FreeRecord, ...] = (), trace: Tuple[str, ...] = (),
                 escaped: bool = False, tainted: bool = False,
                 partial_path: Optional[Tuple[PathCond, ...]] = None) -> None:
        self.id, self.alloc, self.state = id, alloc, state
        self.owners, self.frees, self.trace = owners, frees, trace
        self.escaped, self.tainted = escaped, tainted
        self.partial_path = partial_path

    def clone(self) -> "Machine":
        return Machine(self.id, self.alloc, self.state, self.owners,
                       self.frees, self.trace, self.escaped, self.tainted,
                       self.partial_path)

    def key(self) -> tuple:
        """All the walk and the verdicts read of this machine but its id,
        which fixes ``alloc``."""
        return (self.state, self.owners, self.frees, self.trace, self.escaped,
                self.tainted, self.partial_path)

    def _edge(self, new_state: MemState, note: str = "") -> None:
        label = f"{self.state.value}->{new_state.value}"
        self.trace += (f"{label} {note}".rstrip(),)
        self.state = new_state

    def settled(self) -> bool:
        return self.state in (MemState.END, MemState.ERROR)

    def begin(self, note: str = "") -> None:
        self._edge(MemState.ALLOCED, note)
        self.owners |= {self.alloc.owner}

    # -- ownership transfers -------------------------------------------------

    def assign(self, dst: int, src: int, line: int,
               strict: bool = False) -> Optional[MachineError]:
        """Apply ``dst = src`` to the owner set.

        Default mode: a copied owner aliases the block, an overwritten
        owner drops out.  Strict mode applies the add rule and then the
        remove rule against the running set, so the destination of a
        copy is removed right after being added; kept selectable because
        downstream consumers may want that historical behaviour.
        """
        if self.settled() or self.state is MemState.START:
            return None
        pre = self.owners
        self.owners = (pre - {dst} if strict or src not in pre
                       else pre | {dst})
        if self.owners != pre:
            self._edge(self.state, f"assign v{dst}=v{src} @{line}")
            return self._after_owner_loss(line, "reassigned")
        return None

    def drop_owner(self, var: int, line: int, cause: str) -> Optional[MachineError]:
        """Remove one owner (null assignment, arithmetic, scope end, reuse)."""
        if self.settled() or var not in self.owners:
            return None
        self.owners -= {var}
        self._edge(self.state, f"drop v{var} {cause} @{line}")
        return self._after_owner_loss(line, cause)

    def _after_owner_loss(self, line: int, cause: str) -> Optional[MachineError]:
        if self.owners:
            return None
        if self.state is MemState.FREED:
            self._edge(MemState.END, f"forgotten @{line}")
            return None
        if self.state is MemState.ALLOCED:
            if self.escaped:
                return None
            self._edge(MemState.ERROR, f"lost @{line}")
            return MachineError(
                DefectKind.POINTER_OWNERSHIP_LOST, line,
                f"last reference to the block from line {self.alloc.line} "
                f"is {cause} before release")
        return None

    def mark_escaped(self) -> None:
        if not self.settled():
            self.escaped = True

    def taint(self) -> None:
        if not self.settled():
            self.tainted = True

    # -- release -------------------------------------------------------------

    def release(self, fn: str, line: int) -> Optional[MachineError]:
        if self.settled() or self.state is MemState.START:
            return None
        if self.state is MemState.FREED:
            first = self.frees[0].line if self.frees else self.alloc.line
            self._edge(MemState.ERROR, f"{fn} @{line}")
            return MachineError(
                DefectKind.DOUBLE_FREE, line,
                f"block from line {self.alloc.line} released again "
                f"(first released at line {first})")
        if self.alloc.fn not in FREE_MATCH.get(fn, frozenset()):
            self._edge(MemState.ERROR, f"{fn} @{line}")
            return MachineError(
                DefectKind.MISMATCHED_ALLOC_FREE, line,
                f"block allocated with {self.alloc.fn} at line "
                f"{self.alloc.line} released with {fn}")
        self.frees += (FreeRecord(line, fn),)
        self._edge(MemState.FREED, f"{fn} @{line}")
        return None

    # -- end of tracking -----------------------------------------------------

    def finish(self, line: int) -> Optional[MachineError]:
        """Close out the machine at the end of its owning function."""
        if self.settled() or self.state is MemState.START:
            return None
        if self.state is MemState.FREED:
            self._edge(MemState.END, f"eof @{line}")
            return None
        # Alloced at the end of tracking.
        if self.tainted:
            self._edge(MemState.END, "tainted")
            return None
        if self.escaped:
            return None  # stays Alloced; the caller now owns it
        if self.partial_path is not None:
            self._edge(MemState.ERROR, f"partial @{line}")
            return MachineError(
                DefectKind.PATH_MISSING_RELEASE, self.alloc.line,
                f"block from line {self.alloc.line} is released only on "
                f"some paths of its releasing callee")
        self._edge(MemState.ERROR, f"leak @{line}")
        return MachineError(
            DefectKind.MISSING_RELEASE, self.alloc.line,
            f"block allocated at line {self.alloc.line} is never released")

    def replay(self) -> Tuple[str, bool]:
        """Re-run the recorded trace; returns (final state, all edges legal).

        Tainted closure is the one transition outside the legal set and
        is reported as such rather than silently accepted.
        """
        state = "Start"
        legal = True
        for entry in self.trace:
            edge = entry.split(" ", 1)[0]
            src, _, dst = edge.partition("->")
            if src != state:
                legal = False
            if (src, dst) not in LEGAL_EDGES and not entry.endswith("tainted"):
                legal = False
            state = dst
        return state, legal


class MachineSet:
    """One variant's machines by id; the walk moves settled ones out."""

    def __init__(self) -> None:
        self.by_id: Dict[int, Machine] = {}

    def clone(self) -> "MachineSet":
        twin = MachineSet()
        twin.by_id = {mid: m.clone() for mid, m in self.by_id.items()}
        return twin

    def add(self, machine: Machine) -> None:
        self.by_id[machine.id] = machine

    def owning(self, var: int) -> List[Machine]:
        return [m for _mid, m in sorted(self.by_id.items()) if var in m.owners]

    def live(self) -> List[Machine]:
        return [m for _mid, m in sorted(self.by_id.items())]

    def on_alloc(self, new_id: int, owner: int, fn: str,
                 line: int) -> Tuple[Machine, List[MachineError]]:
        """Create a machine for an allocation assigned to *owner*.

        Any machine previously owned through the same variable loses that
        owner first: a still-live block may turn into an ownership loss,
        a released block quietly expires (pointer reuse).
        """
        errors: List[MachineError] = []
        for old in self.owning(owner):
            err = old.drop_owner(owner, line, "overwritten by a new allocation")
            if err is not None:
                errors.append(err)
        machine = Machine(new_id, AllocRecord(line, fn, owner))
        machine.begin(f"{fn} @{line}")
        self.add(machine)
        return machine, errors
