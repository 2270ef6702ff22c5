"""Growth guards that do not time anything.

Each input below once made some layer quadratic.  The tests count the
Python line events that ``sys.settrace`` reports inside the ``zkleak``
package during one ``report.run``, at N and at 2N.  That count is the
work done, independent of the host's speed, so doubling the input may
at most about double it; a quadratic path reads as a ratio near 4.
"""

from __future__ import annotations

import pytest

from zkleak.report import run


def nested_templates(n: int) -> str:
    # Every ">>" closes two templates and is split by the scope pass.
    return "".join(f"vector<vector<int>> v{k};\n" for k in range(n))


def many_calls(n: int) -> str:
    # One function, one CFG node per call site.
    return "void g() { }\nvoid f() {\n" + "  g();\n" * n + "}\n"


def open_prototypes(n: int) -> str:
    # Every declaration's "(" is left open.
    return "".join(f"int f{k} ( ;\n" for k in range(n))


def _nested(opener: str, closer: str, n: int) -> str:
    # n levels of one construct around the allocation of a leaked pointer.
    return ("void f(int n){ char *p; " + opener * n + "p = malloc(4); "
            + closer * n + "}\n")


def nested_ifs(n: int) -> str:
    return _nested("if (n) { ", "} ", n)


def nested_blocks(n: int) -> str:
    return _nested("{ ", "} ", n)


def nested_whiles(n: int) -> str:
    return _nested("while (n) { ", "} ", n)


def nested_dos(n: int) -> str:
    return _nested("do { ", "} while (n); ", n)


def nested_fors(n: int) -> str:
    return _nested("for (;n;) { ", "} ", n)


def nested_switches(n: int) -> str:
    return _nested("switch (n) { case 1: ", "} ", n)


NESTING = [nested_ifs, nested_blocks, nested_whiles, nested_dos, nested_fors,
           nested_switches]


@pytest.mark.parametrize("make", [nested_templates, many_calls, open_prototypes]
                         + NESTING, ids=lambda make: make.__name__)
def test_doubling_the_input_at_most_doubles_the_work(make, line_events):
    small = line_events(run, [("scale.cc", make(250))])
    large = line_events(run, [("scale.cc", make(500))])
    assert large / small <= 2.3, (small, large)


@pytest.mark.parametrize("make", NESTING, ids=lambda make: make.__name__)
@pytest.mark.parametrize("n", [250, 500])
def test_a_leak_under_deep_nesting_is_still_found(make, n):
    report = run([("scale.cc", make(n))])
    assert [(d.kind.value, d.line) for d in report.defects] == [
        ("MissingRelease", 1)]
