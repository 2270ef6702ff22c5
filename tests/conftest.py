from __future__ import annotations

import pathlib

import pytest

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
