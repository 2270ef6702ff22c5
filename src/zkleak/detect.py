"""Per-file front end and the class-shape rules.

``load_source`` lexes one file, builds its scope tree and collects its
class shapes; ``report.run`` feeds the resulting units to the call graph,
the summaries and the path walk.  Beside the flow-based verdicts, three
class-shape rules run over the class shapes and the allocation and
release events that the walk extracted from each member function's CFG
nodes:

* a class used as a base whose destructor is not virtual,
* a constructor-allocated pointer member the destructor never releases
  (or releases with the wrong pair),
* owning pointer members copied shallowly (no copy constructor and no
  assignment operator at all, or a user-defined one that just copies
  the member without reallocating).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .defects import Defect, DefectKind
from .events import Event, node_events
from .graphs import Cfg
from .machine import FREE_MATCH
from .patterns import Catalog, DefectPattern, compile_catalog
from .scopes import ClassInfo, ScopeNode, build_scope_tree, collect_class_info
from .tokens import TokenKind, TokenStream, tokenize


class FileUnit:
    __slots__ = ("stream", "root", "classes")

    def __init__(self, stream: TokenStream, root: ScopeNode,
                 classes: List[ClassInfo]) -> None:
        self.stream, self.root, self.classes = stream, root, classes


def load_source(name: str, text: str) -> FileUnit:
    stream = tokenize(text, name)
    root = build_scope_tree(stream)
    classes = collect_class_info(root, stream)
    return FileUnit(stream, root, classes)


# ---------------------------------------------------------------------------
# Class-shape rules
# ---------------------------------------------------------------------------

# The walked CFG of each member-function body in one file, by its token span.
_Bodies = Dict[Tuple[int, int], Cfg]


def special_check(units: List[FileUnit], cfgs: List[Cfg],
                  catalog: Union[Catalog, Sequence[DefectPattern], None] = None
                  ) -> List[Defect]:
    """The class-shape rules; *cfgs* holds the walked CFG of every member
    function body."""
    catalog = compile_catalog(catalog)
    bodies_of: Dict[TokenStream, _Bodies] = {}
    for cfg in cfgs:
        span = (cfg.func_scope.token_begin, cfg.func_scope.token_end)
        bodies_of.setdefault(cfg.stream, {})[span] = cfg
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
                file=unit.stream.file, line=base.line, func=base_name,
                message=(f"class {base_name} is inherited by {heirs} "
                         f"but its destructor is not virtual")))

        bodies = bodies_of.get(unit.stream, {})
        for cls in unit.classes:
            defects.extend(_ctor_dtor_rules(unit, cls, bodies, catalog))
    return defects


def _member_events(body: Optional[Cfg], catalog: Catalog,
                   member_ids: Dict[int, str]):
    """(alloc, free) events of the body's CFG nodes that target members."""
    found: Dict[str, List[Event]] = {"alloc": [], "free": []}
    for node in body.nodes if body is not None else ():
        # Alloc and free events do not depend on the call-site map, so a
        # node the walk never applied is extracted without one.
        for ev in node_events(body, node, catalog, {}):
            if ev.kind in found and ev.var in member_ids:
                found[ev.kind].append(ev)
    return found["alloc"], found["free"]


def _ctor_dtor_rules(unit: FileUnit, cls: ClassInfo,
                     bodies: _Bodies, catalog: Catalog) -> List[Defect]:
    defects: List[Defect] = []
    member_ids = {m.var_id: m.name for m in cls.pointer_members}
    if not member_ids:
        return defects

    ctor_allocs: List[Event] = []
    for span in cls.ctors:
        allocs, _ = _member_events(bodies.get(span), catalog, member_ids)
        ctor_allocs.extend(allocs)

    dtor_frees: Dict[int, Event] = {}
    _, frees = _member_events(bodies.get(cls.dtor), catalog, member_ids)
    for ev in frees:
        dtor_frees.setdefault(ev.var, ev)

    qualified = f"{cls.name}::{cls.name}"
    for ev in ctor_allocs:
        release = dtor_frees.get(ev.var)
        if release is None:
            defects.append(Defect(
                kind=DefectKind.CTOR_DTOR_MISMATCH,
                file=unit.stream.file, line=ev.line, func=qualified,
                message=(f"member {ev.name} allocated with {ev.fn} in "
                         f"the constructor is never released in the "
                         f"destructor of {cls.name}")))
        elif ev.fn not in FREE_MATCH.get(release.fn, frozenset()):
            defects.append(Defect(
                kind=DefectKind.CTOR_DTOR_MISMATCH,
                file=unit.stream.file, line=ev.line, func=qualified,
                message=(f"member {ev.name} allocated with {ev.fn} in "
                         f"the constructor is released with {release.fn} in "
                         f"the destructor of {cls.name}")))

    if ctor_allocs:
        defects.extend(_shallow_copy_rule(unit, cls, ctor_allocs, bodies,
                                          catalog))
    return defects


def _shallow_copy_rule(unit: FileUnit, cls: ClassInfo,
                       ctor_allocs: List[Event],
                       bodies: _Bodies, catalog: Catalog) -> List[Defect]:
    owned_ids = {ev.var: ev.name for ev in ctor_allocs}
    if cls.copy_ctor is None and cls.assign_op is None:
        names = ", ".join(sorted(set(owned_ids.values())))
        return [Defect(
            kind=DefectKind.SHALLOW_COPY,
            file=unit.stream.file, line=cls.line, func=cls.name,
            message=(f"{cls.name} owns {names} but defines neither a copy "
                     f"constructor nor an assignment operator; default "
                     f"copies share the block"))]

    defects: List[Defect] = []
    for span in (cls.copy_ctor, cls.assign_op):
        if span is None:
            continue
        allocs, _ = _member_events(bodies.get(span), catalog, owned_ids)
        realloced = {ev.var for ev in allocs}
        for line, var, name in _shallow_assignments(unit.stream, span, owned_ids):
            if var in realloced:
                continue
            defects.append(Defect(
                kind=DefectKind.SHALLOW_COPY,
                file=unit.stream.file, line=line, func=cls.name,
                message=(f"member {name} of {cls.name} is copied as a raw "
                         f"pointer; both objects now own the same block")))
    return defects


def _shallow_assignments(stream: TokenStream, span: Tuple[int, int],
                         owned_ids: Dict[int, str]):
    """``member = other.member`` / ``member = other->member`` in *span*."""
    begin, end = span
    texts, var_id = stream.text, stream.var_id
    for i in range(begin, min(end, len(texts)) - 4):
        var = var_id[i]
        if var not in owned_ids or texts[i + 1] != "=":
            continue
        if (stream.kind[i + 2] is TokenKind.IDENTIFIER
                and texts[i + 3] in (".", "->")
                and var_id[i + 4] == var):
            yield stream.line[i], var, owned_ids[var]
