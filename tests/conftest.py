"""Every test here fails on a library overflow or invalid-value warning (a
diverging run is silent, as README promises), on a file left open and on an
exception raised where nothing can catch it.

The filters are marks on this directory's tests, not ``filterwarnings`` in
pyproject.toml, which would also apply to a run of ``benchmarks/``, whose
tests still leave files open."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
STRICT = [pytest.mark.filterwarnings(f"error::{category}") for category in
          ("RuntimeWarning", "ResourceWarning", "pytest.PytestUnraisableExceptionWarning")]


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            for mark in STRICT:
                item.add_marker(mark, append=False)  # a test's own filters take precedence
