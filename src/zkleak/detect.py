"""Per-file front end and the class-shape rules.

``load_source`` lexes one file, builds its scope tree and collects its
class shapes; ``report.run`` feeds the resulting units to the call graph,
the summaries and the path walk.  Beside the flow-based verdicts, three
class-shape rules run directly over the scope tree:

* a class used as a base whose destructor is not virtual,
* a constructor-allocated pointer member the destructor never releases
  (or releases with the wrong pair),
* owning pointer members copied shallowly (no copy constructor and no
  assignment operator at all, or a user-defined one that just copies
  the member without reallocating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .defects import Defect, DefectKind
from .events import AllocEvent, FreeEvent, _extract
from .machine import FREE_MATCH
from .patterns import DefectPattern, catalog_patterns
from .scopes import ClassInfo, ScopeNode, build_scope_tree, collect_class_info
from .tokens import TokenKind, TokenStream, tokenize


@dataclass
class FileUnit:
    path: str
    stream: TokenStream
    root: ScopeNode
    classes: List[ClassInfo]


def load_source(name: str, text: str) -> FileUnit:
    stream = tokenize(text, name)
    root = build_scope_tree(stream)
    classes = collect_class_info(root, stream)
    return FileUnit(name, stream, root, classes)


# ---------------------------------------------------------------------------
# Class-shape rules
# ---------------------------------------------------------------------------

def special_check(units: List[FileUnit],
                  catalog: Optional[Sequence[DefectPattern]] = None) -> List[Defect]:
    catalog = catalog_patterns(catalog)
    defects: List[Defect] = []
    for unit in units:
        by_name = {c.name: c for c in unit.classes}
        derived_of: Dict[str, List[str]] = {}
        for cls in unit.classes:
            for base in cls.bases:
                derived_of.setdefault(base, []).append(cls.name)

        for base_name in sorted(derived_of):
            base = by_name.get(base_name)
            if base is None or base.dtor_is_virtual:
                continue
            heirs = ", ".join(sorted(derived_of[base_name]))
            defects.append(Defect(
                kind=DefectKind.NON_VIRTUAL_BASE_DTOR,
                file=unit.path, line=base.line, func=base_name,
                message=(f"class {base_name} is inherited by {heirs} "
                         f"but its destructor is not virtual")))

        for cls in unit.classes:
            defects.extend(_ctor_dtor_rules(unit, cls, catalog))
    return defects


def _member_events(unit: FileUnit, span: Tuple[int, int],
                   catalog: Sequence[DefectPattern],
                   member_ids: Dict[int, str]):
    """(alloc, free) event lists inside *span* that target pointer members."""
    allocs: List[AllocEvent] = []
    frees: List[FreeEvent] = []
    for ev in _extract(unit.stream, span, catalog, {}):
        if isinstance(ev, AllocEvent) and ev.owner in member_ids:
            allocs.append(ev)
        elif isinstance(ev, FreeEvent) and ev.var in member_ids:
            frees.append(ev)
    return allocs, frees


def _ctor_dtor_rules(unit: FileUnit, cls: ClassInfo,
                     catalog: Sequence[DefectPattern]) -> List[Defect]:
    defects: List[Defect] = []
    member_ids = {m.var_id: m.name for m in cls.pointer_members}
    if not member_ids:
        return defects

    ctor_allocs: List[AllocEvent] = []
    for span in cls.ctors:
        allocs, _ = _member_events(unit, (span[0], span[1]), catalog, member_ids)
        ctor_allocs.extend(allocs)

    dtor_frees: Dict[int, FreeEvent] = {}
    if cls.dtor is not None:
        _, frees = _member_events(unit, cls.dtor, catalog, member_ids)
        for ev in frees:
            dtor_frees.setdefault(ev.var, ev)

    qualified = f"{cls.name}::{cls.name}"
    for ev in ctor_allocs:
        release = dtor_frees.get(ev.owner)
        if release is None:
            defects.append(Defect(
                kind=DefectKind.CTOR_DTOR_MISMATCH,
                file=unit.path, line=ev.line, func=qualified,
                message=(f"member {ev.owner_name} allocated with {ev.fn} in "
                         f"the constructor is never released in the "
                         f"destructor of {cls.name}")))
        elif ev.fn not in FREE_MATCH.get(release.fn, frozenset()):
            defects.append(Defect(
                kind=DefectKind.CTOR_DTOR_MISMATCH,
                file=unit.path, line=ev.line, func=qualified,
                message=(f"member {ev.owner_name} allocated with {ev.fn} in "
                         f"the constructor is released with {release.fn} in "
                         f"the destructor of {cls.name}")))

    if ctor_allocs:
        defects.extend(_shallow_copy_rule(unit, cls, ctor_allocs, catalog))
    return defects


def _shallow_copy_rule(unit: FileUnit, cls: ClassInfo,
                       ctor_allocs: List[AllocEvent],
                       catalog: Sequence[DefectPattern]) -> List[Defect]:
    owned_ids = {ev.owner: ev.owner_name for ev in ctor_allocs}
    if cls.copy_ctor is None and cls.assign_op is None:
        names = ", ".join(sorted(set(owned_ids.values())))
        return [Defect(
            kind=DefectKind.SHALLOW_COPY,
            file=unit.path, line=cls.line, func=cls.name,
            message=(f"{cls.name} owns {names} but defines neither a copy "
                     f"constructor nor an assignment operator; default "
                     f"copies share the block"))]

    defects: List[Defect] = []
    for span in (cls.copy_ctor, cls.assign_op):
        if span is None:
            continue
        allocs, _ = _member_events(unit, span, catalog, owned_ids)
        realloced = {ev.owner for ev in allocs}
        for line, var, name in _shallow_assignments(unit.stream, span, owned_ids):
            if var in realloced:
                continue
            defects.append(Defect(
                kind=DefectKind.SHALLOW_COPY,
                file=unit.path, line=line, func=cls.name,
                message=(f"member {name} of {cls.name} is copied as a raw "
                         f"pointer; both objects now own the same block")))
    return defects


def _shallow_assignments(stream: TokenStream, span: Tuple[int, int],
                         owned_ids: Dict[int, str]):
    """``member = other.member`` / ``member = other->member`` in *span*."""
    begin, end = span
    for i in range(begin, min(end, len(stream)) - 4):
        t0 = stream[i]
        if t0.var_id not in owned_ids or stream[i + 1].text != "=":
            continue
        holder = stream[i + 2]
        accessor = stream[i + 3]
        t4 = stream[i + 4]
        if (holder.kind is TokenKind.IDENTIFIER
                and accessor.text in (".", "->")
                and t4.var_id == t0.var_id):
            yield t0.line, t0.var_id, owned_ids[t0.var_id]
