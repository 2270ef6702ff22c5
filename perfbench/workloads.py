"""Seeded input generators for the benchmark workloads.

Each generator returns a ``Corpus``: the source files to write, and the
claims a correct analysis must make on them.  The expected claims come
from the generator's own plan (or, for ``fixture-mix``, from the
fixtures' ``EXPECT`` comments), never from running zkleak.

The same ``(workload, seed, scale)`` always gives byte-identical files.
A different seed changes names, literals and choices inside each unit
but keeps the number of units and the number of claims of each kind, so
the timings of two seeds stay comparable.  ``scale`` multiplies the
number of units; the units of a smaller scale are a prefix of the units
of a larger one.
"""

from __future__ import annotations

import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

SCALES = (1, 4, 16)
PATH_BUDGET = 64  # the analysis's documented variant budget per function


@dataclass(frozen=True)
class Expect:
    """One claim the analysis must make: file, defect kind and line."""
    file: str
    kind: str
    line: int


@dataclass
class Corpus:
    files: List[Tuple[str, str]]  # (path relative to the corpus root, text)
    expected: List[Expect]
    # Claims per kind that the plan calls for when every path is followed;
    # the same for every seed.  Defaults to the expected claims.
    planned: Counter = field(default_factory=Counter)
    # Planned claims that the documented path budget changes (see
    # _simulate); listed with the results, never counted as misses.
    degraded: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.planned:
            self.planned = self.kind_counts()

    @property
    def lines(self) -> int:
        return sum(len(text.splitlines()) for _path, text in self.files)

    def kind_counts(self) -> Counter:
        return Counter(e.kind for e in self.expected)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


class _Writer:
    """Builds one file line by line and knows the current line number."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def add(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# synth-scale: the throughput corpus of acceptance criterion 5, one file
# ---------------------------------------------------------------------------

SYNTH_PAIRS = 100  # helper/worker pairs per scale unit: 1.8k lines at 1x


def synth_scale(seed: int, scale: int) -> Corpus:
    rng = _rng("synth-scale", seed)
    tag = f"{rng.randrange(16 ** 4):04x}"
    w = _Writer()
    for i in range(SYNTH_PAIRS * scale):
        a, b, c, d = (rng.randint(1, 9) for _ in range(4))
        for line in (
                f"int helper_{tag}_{i} ( int a , int b ) {{",
                "  int r ;",
                "  r = 0 ;",
                f"  if ( a ) {{ r = r + {a} ; }} else {{ r = b ; }}",
                "  while ( b ) { b -- ; r ++ ; }",
                f"  switch ( r ) {{ case {b} : r = {c} ; break ; "
                f"default : r = {d} ; }}",
                "  return r ;",
                "}",
                f"void worker_{tag}_{i} ( int n ) {{",
                "  char * p ;",
                "  char * q ;",
                "  p = malloc ( n ) ;",
                "  q = p ;",
                "  if ( n ) { q [ 0 ] = 0 ; }",
                "  for ( int i = 0 ; i < n ; i ++ ) { n -- ; }",
                "  free ( p ) ;",
                "}",
                ""):
            w.add(line)
    return Corpus([(f"synth_{tag}.c", w.text())], [])


# ---------------------------------------------------------------------------
# call-chains: the summary blueprint of acceptance criterion 3, at scale
# ---------------------------------------------------------------------------

CHAIN_DRIVERS = 64  # drivers per scale unit
CHAIN_FILES = 4

_FAMILIES = {
    # family: (allocation statement in the deepest wrapper, release)
    "malloc": ("p = malloc ( n ) ;", "free ( {v} ) ;"),
    "new": ("p = new char ;", "delete {v} ;"),
    "new_array": ("p = new char [ n ] ;", "delete [ ] {v} ;"),
}
_WRONG_RELEASE = {"malloc": "delete {v} ;", "new": "free ( {v} ) ;",
                  "new_array": "delete {v} ;"}
_CHAIN_PLANS = ("none", "direct", "consumer", "cond_consumer", "double",
                "wrong")


def call_chains(seed: int, scale: int) -> Corpus:
    rng = _rng("call-chains", seed)
    writers = [_Writer() for _ in range(CHAIN_FILES)]
    names = [f"chain{k}.c" for k in range(CHAIN_FILES)]
    expected: List[Expect] = []
    for i in range(CHAIN_DRIVERS * scale):
        w = writers[i % CHAIN_FILES]
        file = names[i % CHAIN_FILES]
        plan = _CHAIN_PLANS[i % len(_CHAIN_PLANS)]
        family = rng.choice(sorted(_FAMILIES))
        depth = 1 + (i // len(_CHAIN_PLANS)) % 3  # every plan at every depth
        alloc_stmt, release = _FAMILIES[family]

        w.add(f"char * mk{depth}_{i} ( int n ) {{")
        w.add("  char * p ;")
        w.add(f"  {alloc_stmt}")
        w.add("  return p ;")
        w.add("}")
        for level in range(depth - 1, 0, -1):
            callee = f"mk{level + 1}_{i}"
            w.add(f"char * mk{level}_{i} ( int n ) {{")
            if rng.random() < 0.5:
                w.add(f"  return {callee} ( n ) ;")
            else:
                w.add("  char * q ;")
                w.add(f"  q = {callee} ( n ) ;")
                w.add("  return q ;")
            w.add("}")
        if plan in ("consumer", "double"):
            w.add(f"void rel_{i} ( char * p ) {{ {release.format(v='p')} }}")
        elif plan == "wrong":
            wrong = _WRONG_RELEASE[family].format(v="p")
            w.add(f"void rel_{i} ( char * p ) {{ {wrong} }}")
        elif plan == "cond_consumer":
            w.add(f"void maybe_{i} ( char * p , int c ) {{ if ( c ) {{ "
                  f"{release.format(v='p')} }} }}")

        w.add(f"void drive_{i} ( int c ) {{")
        w.add("  char * b ;")
        alloc_line = w.add(f"  b = mk1_{i} ( 8 ) ;")
        if plan == "none":
            expected.append(Expect(file, "MissingRelease", alloc_line))
        elif plan == "direct":
            w.add("  " + release.format(v="b"))
        elif plan == "consumer":
            w.add(f"  rel_{i} ( b ) ;")
        elif plan == "cond_consumer":
            w.add(f"  maybe_{i} ( b , c ) ;")
            expected.append(Expect(file, "PathMissingRelease", alloc_line))
        elif plan == "double":
            w.add(f"  rel_{i} ( b ) ;")
            again = w.add("  " + release.format(v="b"))
            expected.append(Expect(file, "DoubleFree", again))
        elif plan == "wrong":
            at = w.add(f"  rel_{i} ( b ) ;")
            expected.append(Expect(file, "MismatchedAllocFree", at))
        w.add("}")
        w.add("")
    files = [(name, w.text()) for name, w in zip(names, writers)]
    return Corpus(files, expected)


# ---------------------------------------------------------------------------
# branch-fanout: many sequential forks over a few allocations
# ---------------------------------------------------------------------------

FANOUT_FUNCS = 32  # functions per scale unit
FANOUT_FILES = 2

# Release plans for one allocation.  "tail" frees through an alias after
# the forks; "leak" never frees; "arm" frees in some arms of one fork;
# "all_arms" in every arm of one fork; "double" in some arms and again in
# the tail; "lost" drops both pointers in the tail without a release.
_FANOUT_PLANS = ("tail", "leak", "arm", "all_arms", "double", "lost")
_RANK = {"A": 3, "F": 2, "END": 1, "E": 0}  # live block outranks a freed one


@dataclass
class _Fork:
    kind: str  # "if" | "switch" | "while"
    ways: int
    frees: Dict[int, List[int]] = field(default_factory=dict)  # arm -> allocs
    lines: Dict[int, int] = field(default_factory=dict)  # alloc -> free line


def _simulate(allocs: List[int], forks: List[_Fork],
              tail: List[Tuple[str, int, int]], budget: int):
    """Claims of one generated function under the analysis's stated rules.

    Variants fork at every fork; before a fork that would push their
    number past *budget*, all variants collapse into one in which a block
    live on any arm stays live.  A release of a released block is a
    double free at that line; losing the last pointer to a live block is
    an ownership loss; a block live at the exit in every variant is a
    missing release, in some variants a path-conditional one.
    """
    claims = set()
    variants = [tuple("A" for _ in allocs)]
    for fork in forks:
        if len(variants) * fork.ways > budget:
            variants = [tuple(max((v[k] for v in variants), key=_RANK.get)
                              for k in range(len(allocs)))]
        grown = []
        for v in variants:
            for arm in range(fork.ways):
                state = list(v)
                for k in fork.frees.get(arm, ()):
                    if state[k] == "F":
                        claims.add(("DoubleFree", fork.lines[k]))
                        state[k] = "E"
                    elif state[k] == "A":
                        state[k] = "F"
                grown.append(tuple(state))
        variants = grown
    final = []
    for v in variants:
        state = list(v)
        for op, k, line in tail:
            if op == "free":
                if state[k] == "F":
                    claims.add(("DoubleFree", line))
                    state[k] = "E"
                elif state[k] == "A":
                    state[k] = "F"
            elif op == "lose":
                if state[k] == "A":
                    claims.add(("PointerOwnershipLost", line))
                    state[k] = "E"
                elif state[k] == "F":
                    state[k] = "END"
        final.append(state)
    for k, line in enumerate(allocs):
        live = sum(1 for state in final if state[k] == "A")
        if live == len(final):
            claims.add(("MissingRelease", line))
        elif live:
            claims.add(("PathMissingRelease", line))
    return claims


def _fanout_function(w: _Writer, rng: random.Random, idx: int):
    # The fork structure and the release plans depend on the function's
    # index only, so every seed does the same amount of path work; the
    # seed picks which fork and which arms hold a release, and literals.
    shape = random.Random(f"branch-fanout-shape/{idx}")
    nalloc = 2 + idx % 2
    forks: List[_Fork] = []
    for _ in range(shape.randint(5, 8)):
        kind = shape.choice(("if", "if", "switch", "while"))
        forks.append(_Fork(kind, shape.randint(3, 4) if kind == "switch" else 2))
    if all(f.kind == "while" for f in forks):
        forks[0] = _Fork("if", 2)
    nforks = len(forks)
    branchy = [f for f in forks if f.kind != "while"]
    plans = [_FANOUT_PLANS[(idx + 2 * k) % len(_FANOUT_PLANS)]
             for k in range(nalloc)]
    for k, plan in enumerate(plans):
        if plan in ("arm", "double", "all_arms"):
            fork = rng.choice(branchy)
            if plan == "all_arms":
                arms = list(range(fork.ways))
            else:
                arms = rng.sample(range(fork.ways), rng.randint(1, fork.ways - 1))
            for arm in arms:
                fork.frees.setdefault(arm, []).append(k)

    params = " , ".join(f"int c{j}" for j in range(nforks))
    w.add(f"void fan_{idx} ( {params} ) {{")
    for k in range(nalloc):
        w.add(f"  char * p{k} ;")
        w.add(f"  char * q{k} ;")
    w.add("  int r ;")
    w.add("  r = 0 ;")
    allocs = [w.add(f"  p{k} = malloc ( {rng.randint(1, 64)} ) ;")
              for k in range(nalloc)]

    def arm_body(fork: _Fork, arm: int, indent: str) -> None:
        w.add(f"{indent}r = r + {rng.randint(1, 9)} ;")
        for k in fork.frees.get(arm, ()):
            fork.lines[k] = w.add(f"{indent}free ( p{k} ) ;")

    for j, fork in enumerate(forks):
        if fork.kind == "if":
            w.add(f"  if ( c{j} ) {{")
            arm_body(fork, 0, "    ")
            w.add("  } else {")
            arm_body(fork, 1, "    ")
            w.add("  }")
        elif fork.kind == "switch":
            w.add(f"  switch ( c{j} ) {{")
            for arm in range(fork.ways):
                w.add(f"  case {arm} :" if arm < fork.ways - 1 else "  default :")
                arm_body(fork, arm, "    ")
                w.add("    break ;")
            w.add("  }")
        else:
            w.add(f"  while ( c{j} ) {{")
            w.add(f"    c{j} -- ;")
            w.add("    r ++ ;")
            w.add("  }")

    tail: List[Tuple[str, int, int]] = []
    truth = set()
    for k, plan in enumerate(plans):
        w.add(f"  q{k} = p{k} ;")
        if plan in ("tail", "double"):
            line = w.add(f"  free ( q{k} ) ;")
            tail.append(("free", k, line))
            if plan == "double":
                truth.add(("DoubleFree", line))
        elif plan == "lost":
            w.add(f"  p{k} = 0 ;")
            line = w.add(f"  q{k} = 0 ;")
            tail.append(("lose", k, line))
            truth.add(("PointerOwnershipLost", line))
        elif plan == "leak":
            truth.add(("MissingRelease", allocs[k]))
        elif plan == "arm":
            truth.add(("PathMissingRelease", allocs[k]))
    w.add("}")
    w.add("")
    return allocs, forks, tail, truth


def branch_fanout(seed: int, scale: int) -> Corpus:
    rng = _rng("branch-fanout", seed)
    writers = [_Writer() for _ in range(FANOUT_FILES)]
    names = [f"fanout{k}.c" for k in range(FANOUT_FILES)]
    expected: List[Expect] = []
    planned: Counter = Counter()
    degraded: List[str] = []
    for i in range(FANOUT_FUNCS * scale):
        file = names[i % FANOUT_FILES]
        allocs, forks, tail, exact = _fanout_function(
            writers[i % FANOUT_FILES], rng, i)
        stated = _simulate(allocs, forks, tail, PATH_BUDGET)
        expected.extend(Expect(file, kind, line) for kind, line in sorted(stated))
        planned.update(kind for kind, _line in exact)
        for kind, line in sorted(exact ^ stated):
            side = "path-exact only" if (kind, line) in exact else "budget only"
            degraded.append(f"{file}:{line}: {kind} ({side})")
    files = [(name, w.text()) for name, w in zip(names, writers)]
    return Corpus(files, expected, planned, degraded)


# ---------------------------------------------------------------------------
# fixture-mix: copies of the hand-annotated corpus fixtures
# ---------------------------------------------------------------------------

FIXTURE_COPIES = 2  # copies of every fixture per scale unit
_EXPECT_RE = re.compile(r"//\s*EXPECT-(?:LEAK|FP):\s*([A-Za-z]+)")


def fixture_dir(root: str) -> str:
    return os.path.join(root, "tests", "fixtures", "corpus")


def fixture_mix(seed: int, scale: int, root: str = ".") -> Corpus:
    corpus = fixture_dir(root)
    names = sorted(os.listdir(corpus))
    if not names:
        raise FileNotFoundError(f"no fixtures in {corpus}")
    texts = []
    for name in names:
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            texts.append((name, fh.read()))
    rng = _rng("fixture-mix", seed)
    files: List[Tuple[str, str]] = []
    expected: List[Expect] = []
    for copy in range(FIXTURE_COPIES * scale):
        stamp = rng.randrange(10 ** 6)
        for name, text in texts:
            path = f"c{copy:03d}/{name}"
            files.append((path, f"{text}// copy {copy}, stamp {stamp}\n"))
            for lineno, line in enumerate(text.splitlines(), start=1):
                m = _EXPECT_RE.search(line)
                if m:
                    expected.append(Expect(path, m.group(1), lineno))
    return Corpus(files, expected)


GENERATORS: Dict[str, Callable[..., Corpus]] = {
    "synth-scale": synth_scale,
    "call-chains": call_chains,
    "branch-fanout": branch_fanout,
    "fixture-mix": fixture_mix,
}


def generate(workload: str, seed: int, scale: int, root: str = ".") -> Corpus:
    if workload == "fixture-mix":
        return fixture_mix(seed, scale, root)
    return GENERATORS[workload](seed, scale)
