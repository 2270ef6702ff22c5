"""The full corpus report, pinned byte for byte.

``fixtures/corpus_report.json`` is the reference output of
``zkleak --format json --metrics inline tests/fixtures/corpus`` with the
``timing`` block removed (it varies run to run), every path made
relative to the corpus directory, and the exit code recorded.
Criterion 1 checks kinds and lines only; this test also pins messages,
functions, path conditions, traces, file stats and metrics.  The fixture
is a reference, not a snapshot: when this test fails, the change altered
a verdict.
"""

from __future__ import annotations

import json
from pathlib import Path

from zkleak.cli import main

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
GOLDEN = Path(__file__).parent / "fixtures" / "corpus_report.json"


def _relative(path: str) -> str:
    return Path(path).relative_to(CORPUS).as_posix()


def corpus_report(capsys) -> str:
    code = main(["--format", "json", "--metrics", "inline", str(CORPUS)])
    doc = json.loads(capsys.readouterr().out)
    del doc["timing"]
    for entry in doc["files"]:
        entry["path"] = _relative(entry["path"])
    for entry in doc["defects"] + doc["warnings"]:
        entry["file"] = _relative(entry["file"])
    return json.dumps({"exitCode": code, "report": doc},
                      indent=2, sort_keys=True) + "\n"


def test_corpus_report_is_unchanged(capsys):
    assert corpus_report(capsys) == GOLDEN.read_text(encoding="utf-8")
