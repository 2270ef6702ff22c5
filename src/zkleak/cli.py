"""Command line front end.

Exit status: 0 when no defects were claimed, 1 when at least one defect
was (warnings never affect the status), 2 on usage or input errors, 3
when the analysis itself failed (an internal error, reported on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .graphs import build_cfg, dump_cfg, dump_fcg, func_id_of
from .patterns import BadPatternUnit, builtin_patterns, load_pattern_file
from .report import Annotation, load_annotation_file, run
from .scopes import dump_scopes
from .summaries import dump_summaries

SOURCE_SUFFIXES = (".c", ".h", ".cc", ".cpp", ".cxx", ".hh", ".hpp")


def _gather(paths: List[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()  # os.walk descends in the order left here
                for name in sorted(filenames):
                    if name.endswith(SOURCE_SUFFIXES):
                        files.append(os.path.join(dirpath, name))
        else:
            files.append(path)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkleak",
        description="Static allocation/release checker for C and C++ sources.")
    parser.add_argument("paths", nargs="*", help="source files or directories")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--patterns", metavar="FILE",
                        help="extra pattern catalog (label: pattern per line)")
    parser.add_argument("--metrics", metavar="ANNOTATIONS",
                        help="'inline' to read EXPECT comments from the "
                             "sources, or a JSON sidecar path")
    parser.add_argument("--strict-table2", action="store_true", dest="strict",
                        help="apply the literal transfer rules (an aliasing "
                             "copy loses the new owner again)")
    parser.add_argument("--dump-scopes", action="store_true")
    parser.add_argument("--dump-cfg", metavar="FUNC")
    parser.add_argument("--dump-fcg", action="store_true")
    parser.add_argument("--dump-summaries", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("zkleak: error: no input files", file=sys.stderr)
        return 2

    try:
        files = _gather(args.paths)
        sources: List[Tuple[str, str]] = []
        for path in files:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                sources.append((path, fh.read()))
    except OSError as exc:
        print(f"zkleak: error: {exc}", file=sys.stderr)
        return 2
    if not sources:
        print("zkleak: error: no source files found", file=sys.stderr)
        return 2

    catalog = None
    if args.patterns:
        try:
            merged = builtin_patterns()
            merged.update(load_pattern_file(args.patterns))
            catalog = merged
        except (OSError, BadPatternUnit, ValueError) as exc:
            print(f"zkleak: error: {exc}", file=sys.stderr)
            return 2

    annotations: Optional[List[Annotation]] = None
    inline = False
    if args.metrics:
        if args.metrics == "inline":
            inline = True
        else:
            try:
                annotations = load_annotation_file(args.metrics)
            except (OSError, ValueError, KeyError) as exc:
                print(f"zkleak: error: bad annotation file: {exc}",
                      file=sys.stderr)
                return 2

    try:
        report = run(sources, catalog=catalog, strict=args.strict,
                     annotations=annotations, inline_annotations=inline)
    except Exception as exc:
        print(f"zkleak: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3

    dumped = False
    if args.dump_scopes:
        for unit in report.units:
            print(f"== {unit.stream.file}")
            print(dump_scopes(unit.root, unit.stream))
        dumped = True
    if args.dump_cfg:
        wanted = args.dump_cfg
        shown = 0
        # Every body with that name, same-id twins in source order.
        bodies = sorted(((func_id_of(scope, unit.stream), scope, unit.stream)
                         for unit in report.units
                         for scope in unit.root.function_scopes),
                        key=lambda body: body[0])
        for fid, scope, stream in bodies:
            if wanted in (fid.func_name, fid.qualified()):
                print(f"== {fid.render()}")
                print(dump_cfg(build_cfg(scope, stream)))
                shown += 1
        if not shown:
            print(f"zkleak: error: no function named {wanted}", file=sys.stderr)
            return 2
        dumped = True
    if args.dump_fcg:
        print(dump_fcg(report.fcg))
        dumped = True
    if args.dump_summaries:
        print(dump_summaries(report.summary_run))
        dumped = True
    if dumped:
        return 0

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 1 if report.defects else 0


if __name__ == "__main__":
    sys.exit(main())
