"""Records shared across the pipeline: ``Record``, the base of every
record that is compared or hashed, and the defects that the state
machine, detectors and reporting exchange."""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import List, Optional, Tuple


class Record:
    """A plain slotted record, equal only to a record of its own class with
    equal fields, and hashed as the tuple of its fields.  The package's
    records that are never compared are bare slotted classes."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1
                                   else lambda record: (get(record),))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"


class DefectKind(Enum):
    MISSING_RELEASE = "MissingRelease"
    PATH_MISSING_RELEASE = "PathMissingRelease"
    POINTER_OWNERSHIP_LOST = "PointerOwnershipLost"
    MISMATCHED_ALLOC_FREE = "MismatchedAllocFree"
    DOUBLE_FREE = "DoubleFree"
    CTOR_DTOR_MISMATCH = "CtorDtorMismatch"
    NON_VIRTUAL_BASE_DTOR = "NonVirtualBaseDtor"
    SHALLOW_COPY = "ShallowCopy"
    RECURSIVE_CALL_RING = "RecursiveCallRing"
    UNBALANCED_BRACES_WARNING = "UnbalancedBracesWarning"
    AMBIGUOUS_CALL_WARNING = "AmbiguousCallWarning"


WARNING_KINDS = frozenset({
    DefectKind.UNBALANCED_BRACES_WARNING,
    DefectKind.AMBIGUOUS_CALL_WARNING,
})

# (guard text, arm tag) pairs describing the branch decisions on a path.
PathCond = Tuple[str, str]


class Defect:
    __slots__ = ("kind", "file", "line", "func", "message", "path_c", "trace")

    def __init__(self, kind: DefectKind, file: str, line: int, func: str,
                 message: str, path_c: Optional[List[PathCond]] = None,
                 trace: Optional[List[str]] = None) -> None:
        self.kind, self.file, self.line, self.func = kind, file, line, func
        self.message = message
        self.path_c = [] if path_c is None else path_c
        self.trace = [] if trace is None else trace

    def dedup_key(self) -> tuple:
        return (self.kind, self.file, self.line, self.func, tuple(self.path_c))

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.kind.value, self.func, tuple(self.path_c))

    def is_warning(self) -> bool:
        return self.kind in WARNING_KINDS

    def render(self) -> str:
        text = f"{self.file}:{self.line}: {self.kind.value}: {self.message}"
        if self.func:
            text += f" [{self.func}]"
        if self.path_c:
            conds = ", ".join(f"{guard} -> {arm}" for guard, arm in self.path_c)
            text += f" (path: {conds})"
        return text


def dedup_and_sort(defects: List[Defect]) -> List[Defect]:
    """Drop exact duplicates and order by (file, line, kind)."""
    seen = {}
    for defect in defects:
        key = defect.dedup_key()
        if key not in seen:
            seen[key] = defect
    return sorted(seen.values(), key=Defect.sort_key)
