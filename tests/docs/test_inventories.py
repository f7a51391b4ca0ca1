"""Artifacts that exist in pairs must agree: each diagnostic code and
its row in docs/linting.md, each committed benchmark baseline and the
script that writes it plus its docs/performance.md row, each CLI
subcommand and flag and its mention in README.md or docs/, and each
srclint fixture directory and a test that reads it."""

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


def _bench_gaps(bench, inventory):
    """(baselines no ``bench_*.py`` writes, baselines not in ``inventory``)."""
    scripts = "\n".join(p.read_text(encoding="utf-8")
                        for p in bench.glob("bench_*.py"))
    baselines = sorted(p.name for p in bench.glob("BENCH_*.json"))
    return ([b for b in baselines if b not in scripts],
            [b for b in baselines if b not in inventory])


def test_every_bench_baseline_is_written_and_inventoried():
    unwritten, uninventoried = _bench_gaps(REPO / "benchmarks",
                                           _read("docs", "performance.md"))
    assert unwritten == [], "no bench_*.py writes these"
    assert uninventoried == [], "not in docs/performance.md"


def _one_baseline(tmp_path, written):
    (tmp_path / "BENCH_grid.json").write_text("{}\n", encoding="utf-8")
    (tmp_path / "bench_grid.py").write_text(f'OUT = "{written}"\n',
                                            encoding="utf-8")
    return tmp_path


def test_dropping_the_inventory_row_is_caught(tmp_path):
    bench = _one_baseline(tmp_path, "BENCH_grid.json")
    assert _bench_gaps(bench, "| BENCH_grid.json | a row |") == ([], [])
    assert _bench_gaps(bench, "") == ([], ["BENCH_grid.json"])


def test_unregistering_a_bench_baseline_is_caught(tmp_path):
    bench = _one_baseline(tmp_path, "BENCH_other.json")
    assert _bench_gaps(bench, "| BENCH_grid.json | a row |") == (
        ["BENCH_grid.json"], [])


def test_every_cli_subcommand_and_flag_is_documented():
    corpus = "\n".join([_read("README.md")] + [
        p.read_text(encoding="utf-8")
        for p in sorted((REPO / "docs").glob("*.md"))
    ])
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        assert re.search(rf"repro\s+{name}(?![\w-])", corpus), name
        for flag in (o for a in sub._actions for o in a.option_strings):
            if flag.startswith("--") and flag != "--help":
                assert re.search(re.escape(flag) + r"(?![\w-])", corpus), (
                    f"repro {name} {flag}")


def test_every_srclint_fixture_is_read_by_a_test():
    lint_tests = REPO / "tests" / "lint"
    corpus = "\n".join(p.read_text(encoding="utf-8")
                       for p in lint_tests.glob("*.py"))
    fixtures = lint_tests / "fixtures" / "srclint"
    for fixture in sorted(p.name for p in fixtures.iterdir()
                          if p.is_dir() and not p.name.startswith("_")):
        assert fixture in corpus, f"fixture {fixture} is read by no test"
