"""Backticked file names in the docs name files that exist.

Every inline-code ``*.py`` / ``*.md`` path in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md must resolve to a file: against the
document's own directory, or as the tail of a path in the checkout
(``ledger/run.py``, ``hpcm/world.py``, ``policy.py``).  Fenced code
blocks are skipped, and so are globs (``*.py``).
"""

import functools
import os
import re
from pathlib import Path

import pytest

from .test_code_refs import REPO, _SPAN_RE, _doc_files

_FILE_RE = re.compile(
    r"(?<![\w./*-])((?:\.\.?/)*[\w.-]+(?:/[\w.-]+)*\.(?:py|md))(?![\w/])")


@functools.lru_cache(maxsize=None)
def _checkout():
    """Every file under the repository root as a ``/``-joined path,
    version control and caches left out."""
    found = set()
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs
                   if not d.startswith(".") and d != "__pycache__"]
        rel = Path(root).relative_to(REPO).as_posix()
        found.update(name if rel == "." else f"{rel}/{name}"
                     for name in files)
    return found


def _resolves(ref, doc_dir):
    if (doc_dir / ref).is_file():
        return True
    return any(path == ref or path.endswith("/" + ref)
               for path in _checkout())


def _file_references(text):
    """``(line, path)`` for each backticked file path outside fences."""
    refs = []
    in_fence = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in _SPAN_RE.findall(line):
            refs.extend((number, ref) for ref in _FILE_RE.findall(span))
    return refs


def _missing(text, doc_dir):
    return [f"{line}: {ref}" for line, ref in _file_references(text)
            if not _resolves(ref, doc_dir)]


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO)))
def test_file_references_exist(doc):
    missing = _missing(doc.read_text(encoding="utf-8"), doc.parent)
    assert not missing, f"{doc.name} names files that do not exist: {missing}"


def test_the_check_sees_file_references_and_reports_a_deleted_one():
    docs = REPO / "docs"
    assert sum(len(_file_references(doc.read_text(encoding="utf-8")))
               for doc in _doc_files()) > 150
    text = "\n".join([
        "`protocol/messages.py:186`, `python3 ledger/run.py --quick`,",
        "`../ledger/README.md`, `policy.py` and `*.py` resolve;",
        "```", "`rulelint.py` in a fence is not read", "```",
        "`lint/rulelint.py` and `rulelint.py` are deleted.",
    ])
    assert _file_references(text) == [
        (1, "protocol/messages.py"), (1, "ledger/run.py"),
        (2, "../ledger/README.md"), (2, "policy.py"),
        (6, "lint/rulelint.py"), (6, "rulelint.py"),
    ]
    assert _missing(text, docs) == ["6: lint/rulelint.py", "6: rulelint.py"]
    assert _missing("`../ledger/README.md`", REPO) == [
        "1: ../ledger/README.md"]
