"""Differential run: this tree's zkleak against the one at a git revision.

    python tests/differential.py --rev REV [--programs N] [--seed S]

The command generates N seeded programs, alternately C functions over
pointer locals, parameters and globals, and C++ classes with pointer
members.  It runs the command line of both trees on each program, in one
subprocess per tree: once with ``--format json`` and once with
``--dump-summaries``.  It compares the exit codes, the defects and
warnings (traces included), the summaries and the error output.  Each
class of difference is printed with its count and one example, and the
exit status is 1 when any program differs, else 0.

REV is extracted with ``git archive`` into a temporary directory, as are
the programs.  The file's name keeps it out of the pytest run.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------

_ALLOCS = ["malloc({k})", "calloc({k}, 1)", "new char", "new char[{k}]"]
_RELEASES = ["free({v});", "delete {v};", "delete[] {v};"]


class _Body:
    """Random statements over the pointers visible in one function."""

    def __init__(self, rng: random.Random, ptrs: List[str],
                 calls: List[Tuple[str, int, bool]], returns_ptr: bool) -> None:
        self.rng = rng
        self.ptrs = list(ptrs)
        self.calls = calls  # (name, pointer parameters, returns a pointer)
        self.returns_ptr = returns_ptr
        self.fresh = 0
        self.lines: List[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def ptr(self) -> str:
        return self.rng.choice(self.ptrs)

    def alloc(self) -> str:
        return self.rng.choice(_ALLOCS).format(k=self.rng.choice([1, 4, 16]))

    def cond(self) -> str:
        rng = self.rng
        if not self.ptrs or rng.random() < 0.4:
            return rng.choice(["n", "n > 1", "n == 2"])
        return rng.choice(["{v}", "!{v}", "{v} == NULL", "{v} != 0"]).format(
            v=self.ptr())

    def ret(self) -> str:
        if not self.returns_ptr:
            return "return;"
        if self.ptrs and self.rng.random() < 0.7:
            return f"return {self.ptr()};"
        return "return NULL;"

    def block(self, depth: int, count: int) -> None:
        """*count* statements at *depth*; declarations end with the block."""
        visible = len(self.ptrs)
        for _ in range(count):
            self.statement(depth)
        del self.ptrs[visible:]

    def statement(self, depth: int) -> None:
        rng = self.rng
        kinds = ["alloc", "release", "copy", "null", "call", "decl", "redecl"]
        weights = [3, 3, 1, 1, 1, 0.6, 0.3]
        if depth < 4:
            kinds += ["if", "switch", "while", "for", "do", "shadow"]
            weights += [1.6, 0.6, 0.5, 0.5, 0.3, 0.5]
        kind = rng.choices(kinds, weights)[0] if self.ptrs else "decl"
        inner = rng.randint(1, 3)
        if kind == "alloc":
            v = self.ptr()
            if rng.random() < 0.1:
                self.emit(depth, f"{v} = realloc({v}, 32);")
            else:
                self.emit(depth, f"{v} = {self.alloc()};")
        elif kind == "release":
            self.emit(depth, rng.choice(_RELEASES).format(v=self.ptr()))
        elif kind == "copy":
            self.emit(depth, f"{self.ptr()} = {self.ptr()};")
        elif kind == "null":
            self.emit(depth, f"{self.ptr()} = {rng.choice(['NULL', '0'])};")
        elif kind == "call":
            self.call(depth)
        elif kind == "decl":
            name = f"t{self.fresh}"
            self.fresh += 1
            init = rng.choice(["", " = NULL", f" = {self.alloc()}"]
                              + ([f" = {self.ptr()}"] if self.ptrs else []))
            self.emit(depth, f"char *{name}{init};")
            self.ptrs.append(name)
        elif kind == "redecl":  # the newest declaration in a scope wins
            name = self.ptr()
            self.emit(depth, f"char *{name} = {self.alloc()};")
            self.ptrs.append(name)
        elif kind == "if":
            self.emit(depth, f"if ({self.cond()}) {{")
            self.block(depth + 1, inner)
            if rng.random() < 0.3:
                self.emit(depth + 1, self.ret())
            if rng.random() < 0.5:
                self.emit(depth, "} else {")
                self.block(depth + 1, rng.randint(1, 2))
            self.emit(depth, "}")
        elif kind == "switch":
            self.emit(depth, "switch (n) {")
            for label in rng.sample(["case 0:", "case 1:", "case 2:", "default:"],
                                    rng.randint(1, 3)):
                self.emit(depth, label)
                self.block(depth + 1, rng.randint(0, 2))
                if rng.random() < 0.7:
                    self.emit(depth + 1, "break;")
            self.emit(depth, "}")
        elif kind == "while":
            self.emit(depth, f"while ({self.cond()}) {{")
            self.block(depth + 1, inner)
            self.emit(depth + 1, "n = n - 1;")
            self.emit(depth, "}")
        elif kind == "for":
            self.emit(depth, "for (i = 0; i < n; i++) {")
            self.block(depth + 1, inner)
            self.emit(depth, "}")
        elif kind == "do":
            self.emit(depth, "do {")
            self.block(depth + 1, inner)
            self.emit(depth, f"}} while ({self.cond()});")
        else:  # a block whose own declaration shadows a visible pointer
            name = self.ptr()
            self.emit(depth, "{")
            if rng.random() < 0.2:  # a use before the declaration it names
                self.emit(depth + 1, f"{name} = NULL;")
            self.emit(depth + 1, f"char *{name} = {self.alloc()};")
            self.ptrs.append(name)
            self.block(depth + 1, inner)
            self.ptrs.pop()
            self.emit(depth, "}")

    def call(self, depth: int) -> None:
        if not self.calls:
            self.emit(depth, f"{self.ptr()} = {self.alloc()};")
            return
        name, arity, returns_ptr = self.rng.choice(self.calls)
        args = ", ".join(["n"] + [self.ptr() for _ in range(arity)])
        if returns_ptr and self.rng.random() < 0.8:
            self.emit(depth, f"{self.ptr()} = {name}({args});")
        else:
            self.emit(depth, f"{name}({args});")


def _function(rng: random.Random, head: str, ptrs: List[str],
              calls: List[Tuple[str, int, bool]], returns_ptr: bool,
              locals_: int) -> List[str]:
    body = _Body(rng, ptrs, calls, returns_ptr)
    for k in range(locals_):
        init = rng.choice(["", " = NULL", f" = {body.alloc()}"])
        body.emit(1, f"char *v{k}{init};")
        body.ptrs.append(f"v{k}")
    body.emit(1, "int i;")
    body.block(1, rng.randint(2, 7))
    if returns_ptr or rng.random() < 0.2:
        body.emit(1, body.ret())
    return [head + " {"] + body.lines + ["}"]


def generate_c(rng: random.Random) -> str:
    """Functions over pointer parameters, locals and globals that call
    the ones defined before them."""
    lines: List[str] = []
    globals_ = [f"g{k}" for k in range(rng.randint(0, 2))]
    for g in globals_:
        lines.append(f"{rng.choice(['', 'static '])}char *{g};")
    calls: List[Tuple[str, int, bool]] = []
    for f in range(rng.randint(1, 4)):
        name = f"f{f}"
        params = [f"p{k}" for k in range(rng.randint(0, 2))]
        returns_ptr = rng.random() < 0.4
        head = "{}{}(int n{})".format(
            "char *" if returns_ptr else "void ", name,
            "".join(f", char *{p}" for p in params))
        lines += _function(rng, head, params + globals_, calls, returns_ptr,
                           rng.randint(0, 3))
        calls.append((name, len(params), returns_ptr))
    return "\n".join(lines) + "\n"


def generate_cpp(rng: random.Random) -> str:
    """Classes with pointer members, constructors, destructors and methods
    defined inline or out of line, and member names shadowed by
    parameters, locals and blocks."""
    lines: List[str] = []
    classes: List[str] = []
    for c in range(rng.randint(1, 3)):
        name = f"K{c}"
        members = [f"m{k}" for k in range(rng.randint(1, 3))]
        base = f" : public {rng.choice(classes)}" if classes and rng.random() < 0.3 else ""
        inline: List[str] = []
        outside: List[str] = []
        ctor = _Body(rng, members, [], False)
        for m in members:
            choice = rng.random()
            if choice < 0.7:
                ctor.emit(1, f"{m} = {ctor.alloc()};")
            elif choice < 0.85:
                ctor.emit(1, f"{m} = NULL;")
        dtor = _Body(rng, members, [], False)
        for m in members:
            if rng.random() < 0.75:
                dtor.emit(1, rng.choice(_RELEASES).format(v=m))
        virtual = "virtual " if rng.random() < 0.5 else ""
        for head, qualified, body in (
                (f"{name}()", f"{name}::{name}()", ctor.lines),
                (f"{virtual}~{name}()", f"{name}::~{name}()", dtor.lines)):
            if rng.random() < 0.5:
                inline.append(f"    {head} {{")
                inline.extend("    " + t for t in body)
                inline.append("    }")
            else:
                inline.append(f"    {head};")
                outside += [f"{qualified} {{"] + body + ["}"]
        if rng.random() < 0.3:
            inline.append(f"    {name}(const {name} &o);")
        if rng.random() < 0.3:
            inline.append(f"    {name} &operator=(const {name} &o);")
        for k in range(rng.randint(1, 3)):
            # A parameter may take a member's name and shadow it.
            param = rng.choice(members) if rng.random() < 0.3 else f"s{k}"
            returns_ptr = rng.random() < 0.3
            ret = "char *" if returns_ptr else "void "
            sig = f"(int n, char *{param})"
            if rng.random() < 0.5:
                text = _function(rng, f"{ret}op{k}{sig}", members + [param], [],
                                 returns_ptr, rng.randint(0, 2))
                inline.extend("    " + t for t in text)
            else:
                inline.append(f"    {ret}op{k}{sig};")
                outside += _function(rng, f"{ret}{name}::op{k}{sig}",
                                     members + [param], [], returns_ptr,
                                     rng.randint(0, 2))
        lines.append(f"class {name}{base} {{")
        lines.append("public:")
        lines += [f"    char *{m};" for m in members]
        lines += inline
        lines.append("};")
        lines += outside
        classes.append(name)
    if rng.random() < 0.05:  # a repeated class name
        lines.append(f"struct {rng.choice(classes)} {{ char *m0; char *z; }};")
    user = _Body(rng, ["k"], [], False)
    user.emit(1, f"{rng.choice(classes)} *k = new {rng.choice(classes)};")
    user.block(1, rng.randint(1, 3))
    lines += ["void use(int n) {", "    int i;"] + user.lines + ["}"]
    return "\n".join(lines) + "\n"


def generate(seed: int, index: int) -> Tuple[str, str]:
    """The (file name, source) of program *index* for *seed*."""
    rng = random.Random(f"{seed}:{index}")
    if index % 2:
        return f"p{index:05d}.cc", generate_cpp(rng)
    return f"p{index:05d}.c", generate_c(rng)


# ---------------------------------------------------------------------------
# Running both trees
# ---------------------------------------------------------------------------

# Runs in a subprocess whose PYTHONPATH is one tree's src directory: reads
# program paths from stdin and writes one JSON result per path.
_RUNNER = r"""
import contextlib, io, json, sys
import zkleak
from zkleak.cli import main

def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()

results = {"package": zkleak.__file__, "programs": {}}
for path in sys.stdin.read().splitlines():
    code, out, err = run(["--format", "json", path])
    try:
        doc = json.loads(out)
    except ValueError:
        doc = {}
    dump_code, summaries, dump_err = run(["--dump-summaries", path])
    results["programs"][path] = {
        "exit code": [code, dump_code],
        "defects": doc.get("defects"),
        "warnings": doc.get("warnings"),
        "summaries": summaries,
        "error output": err + dump_err,
    }
json.dump(results, sys.stdout)
"""


def extract_revision(rev: str, dest: str) -> str:
    """Extract REV's ``src`` into *dest* with ``git archive``; return it."""
    archive = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def run_tree(src: str, paths: List[str], cwd: str) -> Dict[str, dict]:
    # One hash seed for both trees, so that nothing that iterates a set of
    # strings can make the two runs differ.
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _RUNNER], input="\n".join(paths),
                          capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"runner for {src} failed:\n{proc.stderr}")
    results = json.loads(proc.stdout)
    package = os.path.realpath(results["package"])
    if not package.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"runner for {src} imported {package}")
    return results["programs"]


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def classify(field: str, here, there) -> str:
    """Name the class of a difference in *field*."""
    if field in ("defects", "warnings") and here is not None and there is not None:
        kinds_here = sorted({d["kind"] for d in here} - {d["kind"] for d in there})
        kinds_there = sorted({d["kind"] for d in there} - {d["kind"] for d in here})
        if kinds_here or kinds_there:
            return (f"{field}: kinds only here {kinds_here or '-'}, "
                    f"only at the revision {kinds_there or '-'}")
        if len(here) != len(there):
            if _sites(here) == _sites(there) and not _claims(here) - _claims(there):
                return (f"{field}: dedup-only, fewer claims at the same "
                        f"(kind, line, function) sites")
            return f"{field}: same kinds, a different count"
        keys = ("line", "function", "message", "pathC", "trace")
        changed = sorted({k for a, b in zip(here, there) for k in keys if a[k] != b[k]})
        return f"{field}: same kinds and count, other {', '.join(changed)}"
    return field


def _claims(claims: List[dict]) -> Counter:
    return Counter(json.dumps(d, sort_keys=True) for d in claims)


def _sites(claims: List[dict]) -> set:
    return {(d["kind"], d["line"], d["function"]) for d in claims}


def render(value) -> List[str]:
    if isinstance(value, str):
        return value.splitlines()
    return json.dumps(value, indent=1, sort_keys=True).splitlines()


def compare(here: Dict[str, dict], there: Dict[str, dict]) -> Dict[str, List[Tuple[str, str]]]:
    """Class of difference -> [(path, field)], in path order."""
    classes: Dict[str, List[Tuple[str, str]]] = {}
    for path in sorted(here):
        for field, value in here[path].items():
            other = there[path][field]
            if value != other:
                classes.setdefault(classify(field, value, other), []).append((path, field))
    return classes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision to compare with")
    parser.add_argument("--programs", type=int, default=200, metavar="N")
    parser.add_argument("--seed", type=int, default=1, metavar="S")
    args = parser.parse_args(argv)
    if args.programs < 1:
        parser.error("--programs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="zkleak-differential-") as tmp:
        try:
            there_src = extract_revision(args.rev, os.path.join(tmp, "rev"))
        except subprocess.CalledProcessError as exc:
            print(f"differential: cannot extract {args.rev}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        programs = os.path.join(tmp, "programs")
        os.mkdir(programs)
        paths = []
        sources = {}
        for index in range(args.programs):
            name, text = generate(args.seed, index)
            path = os.path.join(programs, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(path)
            sources[path] = text
        with ThreadPoolExecutor(max_workers=2) as pool:
            here_job = pool.submit(run_tree, os.path.join(REPO, "src"), paths, programs)
            there_job = pool.submit(run_tree, there_src, paths, programs)
            here, there = here_job.result(), there_job.result()

        classes = compare(here, there)
        c_count = sum(p.endswith(".c") for p in paths)
        differing = len({path for hits in classes.values() for path, _ in hits})
        print(f"{args.programs} programs ({c_count} C, {len(paths) - c_count} C++ "
              f"classes), seed {args.seed}, here vs {args.rev}: "
              f"{differing} differ")
        for label, hits in sorted(classes.items(), key=lambda kv: (-len(kv[1]), kv[0])):
            path, field = hits[0]
            print(f"\n== {len(hits)} program(s): {label}")
            print(f"-- example {os.path.basename(path)}:")
            print(sources[path], end="")
            diff = difflib.unified_diff(render(there[path][field]),
                                        render(here[path][field]),
                                        f"{args.rev}", "here", lineterm="", n=2)
            print("\n".join(list(diff)[:60]))
    return 1 if classes else 0


if __name__ == "__main__":
    sys.exit(main())
