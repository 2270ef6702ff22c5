"""zkleak: a token-level allocation/release checker for C and C++.

The pipeline is lex -> scope -> call graph -> per-function CFG ->
path-sensitive ownership machines, with function summaries carrying
release/allocation behavior across call sites.  See the README for the
catalog of defect kinds and the command line surface.
"""

from .defects import Defect, DefectKind, dedup_and_sort
from .detect import FileUnit, load_source, special_check
from .graphs import (Cfg, CfgNode, CfgNodeKind, Fcg, FuncId, build_cfg,
                     build_fcg, dump_cfg, dump_fcg, find_rings)
from .machine import (FREE_MATCH, LEGAL_EDGES, AllocRecord, FreeRecord,
                      Machine, MachineError, MachineSet, MemState)
from .patterns import (BadPatternUnit, DefectPattern, builtin_patterns,
                       compile_pattern, load_pattern_file, match_all,
                       match_in_range)
from .report import (Annotation, DivisionByZeroActual,
                     DivisionByZeroDefects, Metrics, Report,
                     compute_fnr, compute_fpr, parse_annotations, run,
                     score)
from .scopes import (ClassInfo, ScopeKind, ScopeNode, SymbolEntry,
                     build_scope_tree, collect_class_info, dump_scopes,
                     resolve)
from .summaries import (BehaviorAction, FunctionSummary, OwnerRef,
                        SummaryEntry, apply_summary, dump_summaries,
                        make_call_handler, update_all)
from .tokens import LexToken, TokenKind, TokenStream, tokenize

__version__ = "0.1.0"

__all__ = [
    "AllocRecord", "Annotation", "BadPatternUnit",
    "BehaviorAction", "Cfg", "CfgNode", "CfgNodeKind", "ClassInfo",
    "Defect", "DefectKind", "DefectPattern", "DivisionByZeroActual",
    "DivisionByZeroDefects",
    "Fcg", "FileUnit", "FreeRecord", "FuncId", "FunctionSummary",
    "FREE_MATCH", "LEGAL_EDGES", "LexToken", "Machine", "MachineError",
    "MachineSet", "MemState", "Metrics", "OwnerRef", "Report", "ScopeKind",
    "ScopeNode", "SummaryEntry", "SymbolEntry", "TokenKind", "TokenStream",
    "apply_summary", "build_cfg", "build_fcg",
    "build_scope_tree", "builtin_patterns", "collect_class_info",
    "compile_pattern", "compute_fnr", "compute_fpr", "dedup_and_sort",
    "dump_cfg", "dump_fcg", "dump_scopes", "dump_summaries", "find_rings",
    "load_pattern_file", "load_source",
    "make_call_handler", "match_all", "match_in_range", "parse_annotations",
    "resolve", "run", "score", "special_check", "tokenize",
    "update_all",
]
