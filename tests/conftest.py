from __future__ import annotations

import pathlib
import sys

import pytest

import zkleak

PACKAGE = str(pathlib.Path(zkleak.__file__).parent)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"


@pytest.fixture
def corpus_paths() -> list:
    paths = sorted(CORPUS.iterdir())
    assert paths, "seeded corpus missing"
    return paths


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def line_events():
    """``line_events(fn, *args)`` calls ``fn(*args)`` and returns the
    Python line events ``sys.settrace`` reports inside the ``zkleak``
    package meanwhile: the work done, independent of the host's speed."""
    def count_events(fn, *args) -> int:
        count = 0

        def local(frame, event, arg):
            nonlocal count
            if event == "line":
                count += 1
            return local

        def enter(frame, event, arg):
            return local if frame.f_code.co_filename.startswith(PACKAGE) else None

        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            fn(*args)
        finally:
            sys.settrace(previous)
        return count
    return count_events
