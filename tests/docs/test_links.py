"""No broken relative links in README.md or docs/*.md.

Every ``[text](target)`` whose target is a relative path must resolve
against the file that contains it.  External links (http/https/mailto)
and in-page anchors are skipped; ``#fragment`` suffixes are stripped
before the existence check.
"""

import re
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def _doc_files():
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return files


def _relative_links(path: Path):
    """(target, stripped-path) pairs for the file's relative links,
    ignoring anything inside fenced code blocks."""
    links = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in _LINK_RE.findall(line):
            if target.startswith(_SKIP_PREFIXES):
                continue
            links.append((target, target.split("#", 1)[0]))
    return links


def test_doc_files_exist():
    for path in _doc_files():
        assert path.is_file(), path
    assert len(_doc_files()) >= 5  # README + the docs/ layer


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(doc):
    broken = []
    for target, stripped in _relative_links(doc):
        if not stripped:  # pure fragment already skipped, be safe
            continue
        if not (doc.parent / stripped).exists():
            broken.append(target)
    assert not broken, f"{doc}: broken links {broken}"


def test_docs_index_links_every_doc_page():
    index = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    for page in sorted((REPO / "docs").glob("*.md")):
        if page.name == "README.md":
            continue
        assert page.name in index, f"docs/README.md misses {page.name}"
