"""Plain slotted records, and the import they keep cheap.

The package's records are plain classes with ``__slots__``.  Those that
are compared or hashed derive from ``defects.Record``: equal only to a
record of the same class with equal fields, hashed as the field tuple,
and ``FuncId`` ordered field by field.  Building them needs neither
``dataclasses`` nor the ``inspect`` module it imports, and the first
test keeps both out of ``import zkleak``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from zkleak.events import Event
from zkleak.graphs import FuncId, PlanItem
from zkleak.interp import REF_GLOBAL, REF_PARAM, OwnerRef
from zkleak.machine import FreeRecord
from zkleak.patterns import Abstract, Literal

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no PYTHON* variables, no site hooks, so nothing but the
    # import itself can load a module; -B: no bytecode written to src/.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import zkleak; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]"]


def test_records_of_different_kinds_with_equal_fields_are_unequal():
    assert Event("null", 1, 2, 3) != Event("arith", 1, 2, 3)
    assert Event("null", 1, 2, 3) == Event("null", 1, 2, 3)
    assert Literal("var") != Abstract("var")
    assert Literal("var") == Literal("var")
    assert PlanItem("seq", 0) != PlanItem("return", 0)
    assert OwnerRef(REF_PARAM, 3) != OwnerRef(REF_GLOBAL, 3)
    assert FreeRecord(2, "free") != (2, "free")


def test_a_record_hashes_as_its_field_tuple():
    assert hash(FuncId("a.c", "K", "f", 1)) == hash(("a.c", "K", "f", 1))
    assert hash(OwnerRef(REF_PARAM, 0)) == hash((REF_PARAM, 0))
    assert hash(Literal("free")) == hash(("free",))
    assert len({FreeRecord(2, "free"), FreeRecord(2, "free")}) == 1


def test_func_ids_sort_field_by_field():
    ids = [FuncId("b.c", "", "f", 1), FuncId("a.c", "K", "g", 0),
           FuncId("a.c", "", "z", 2), FuncId("a.c", "", "z", 10),
           FuncId("a.c", "K", "a", 3), FuncId("", "", "ext", 0)]
    assert [f.render() for f in sorted(ids)] == [
        "::::ext/0", "a.c::::z/2", "a.c::::z/10", "a.c::K::a/3",
        "a.c::K::g/0", "b.c::::f/1"]
    assert FuncId("a.c", "", "z", 2) < FuncId("a.c", "", "z", 10)
    assert FuncId("a.c", "", "z", 10) >= FuncId("a.c", "", "z", 2)
