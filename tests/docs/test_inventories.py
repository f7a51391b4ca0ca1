"""Artifacts that exist in pairs must agree: each diagnostic code and
its row in docs/linting.md, each CLI subcommand and flag and its
mention in README.md or docs/ (and each command those show and the
parser), and each srclint fixture directory and
a test that reads it.  EXPERIMENTS.md and EXPERIMENTS.json are checked
in ``test_experiments_md.py``."""

import argparse
import re
from pathlib import Path

import repro
from repro.cli import build_parser
from repro.lint.catalog import CODE_DETAILS

REPO = Path(repro.__file__).resolve().parents[2]


def _read(*parts):
    return REPO.joinpath(*parts).read_text(encoding="utf-8")


def _code_drift(codes, linting_md):
    """(registered codes with no table row, table rows not registered)."""
    rows = set(re.findall(r"^\|\s*([A-Z]\d{3})\s*\|", linting_md,
                          flags=re.MULTILINE))
    return sorted(set(codes) - rows), sorted(rows - set(codes))


def test_registered_codes_match_the_linting_md_tables():
    undocumented, unregistered = _code_drift(CODE_DETAILS,
                                             _read("docs", "linting.md"))
    assert undocumented == [], "registered, but no docs/linting.md row"
    assert unregistered == [], "a docs/linting.md row, but not registered"


def test_deleting_a_registered_code_is_caught():
    linting_md = _read("docs", "linting.md")
    for code in CODE_DETAILS:
        rest = [c for c in CODE_DETAILS if c != code]
        assert _code_drift(rest, linting_md) == ([], [code])


def _cli_docs():
    """README.md and docs/*.md, a ``\\``-continued command on one line."""
    corpus = "\n".join([_read("README.md")] + [
        p.read_text(encoding="utf-8")
        for p in sorted((REPO / "docs").glob("*.md"))
    ])
    return re.sub(r"\\\n\s*", " ", corpus)


def _cli_flags():
    """Each subcommand's long options."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in sub._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, sub in subparsers.choices.items()}


def test_every_cli_subcommand_and_flag_is_documented():
    corpus = _cli_docs()
    for name, flags in _cli_flags().items():
        assert re.search(rf"repro\s+{name}(?![\w-])", corpus), name
        for flag in flags:
            assert re.search(re.escape(flag) + r"(?![\w-])", corpus), (
                f"repro {name} {flag}")


def test_every_documented_command_and_flag_exists():
    """A command the docs show — ``repro X`` and the long options after
    it on the same line, up to a comment — is one the parser accepts,
    so a removed subcommand or flag cannot linger in an example."""
    flags = _cli_flags()
    for m in re.finditer(r"(?<![\w.])(?<!from )repro\s+([a-z][\w-]*)"
                         r"([^\n#`|]*)", _cli_docs()):
        name, rest = m.groups()
        assert name in flags, m.group(0)
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", rest):
            assert flag in flags[name], m.group(0)


def test_every_srclint_fixture_is_read_by_a_test():
    lint_tests = REPO / "tests" / "lint"
    corpus = "\n".join(p.read_text(encoding="utf-8")
                       for p in lint_tests.glob("*.py"))
    fixtures = lint_tests / "fixtures" / "srclint"
    for fixture in sorted(p.name for p in fixtures.iterdir()
                          if p.is_dir() and not p.name.startswith("_")):
        assert fixture in corpus, f"fixture {fixture} is read by no test"
