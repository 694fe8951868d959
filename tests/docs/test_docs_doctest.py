"""The documented snippets must run: doctest over README.md and every
docs/*.md.

Same check the CI ``docs`` job runs via ``python -m doctest``; living in
tier-1 too means a drifted doc fails on a laptop before a PR is pushed.
Any line starting with ``>>>`` in the docs is an executable example —
keep non-runnable illustrations in plain fenced blocks without prompts.
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_docs_exist():
    assert [p.name for p in DOCS] == [
        "README.md",
        "backends.md",
        "crowd.md",
        "engine.md",
        "index.md",
        "service.md",
    ]


@pytest.mark.parametrize("page", DOCS, ids=lambda p: p.name)
def test_docs_doctests_pass(page):
    results = doctest.testfile(
        str(page),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    assert results.failed == 0, f"{page.name}: {results.failed} doctest failure(s)"


def test_docs_have_executable_examples():
    """At least the pages that advertise doctests actually carry some —
    an empty doctest run passes vacuously, which is exactly the rot this
    job exists to prevent."""
    parser = doctest.DocTestParser()
    with_examples = {
        page.name
        for page in DOCS
        if parser.get_examples(page.read_text(), page.name)
    }
    assert {"README.md", "backends.md", "crowd.md", "index.md"} <= with_examples
