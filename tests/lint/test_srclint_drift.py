"""X900 cross-artifact drift: code versus codec, docs, and data.

Fixture-driven checks for X901–X905, the local-anchor silence guards,
and the acceptance mutations: dropping a codec key, unregistering a
diagnostic code, or orphaning a committed benchmark baseline must each
flip the self-lint red.
"""

import os
import shutil
from collections import Counter

import pytest

from repro.lint import collect_files, lint_paths
from repro.lint.srclint import lint_sources
from repro.lint.srclint.drift import lint_drift
from repro.lint.srclint.model import parse_sources


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


# ------------------------------------------------------------ fixtures
def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("x900_firing")], select=["X9"])
    assert Counter(d.code for d in diags) == {
        "X901": 1, "X902": 2, "X903": 2, "X904": 2, "X905": 1,
    }


def test_x901_names_the_dropped_field():
    diag = next(iter(lint_paths([_fixture("x900_firing")],
                                select=["X901"])))
    assert diag.obj == "Packet.flags"
    assert "to_dict" in diag.message


def test_x902_fires_both_directions():
    diags = lint_paths([_fixture("x900_firing")], select=["X902"])
    by_obj = {d.obj: d for d in diags}
    assert set(by_obj) == {"Z901", "Q999"}
    # Registered-but-undocumented points at the registry line...
    assert by_obj["Z901"].file.endswith("catalog.py")
    # ...documented-but-unregistered at the docs table row.
    assert by_obj["Q999"].file.endswith("linting.md")


def test_x903_distinguishes_orphan_from_uninventoried():
    diags = lint_paths([_fixture("x900_firing")], select=["X903"])
    by_obj = {d.obj: d.message for d in diags}
    assert "written by no" in by_obj["BENCH_orphan.json"]
    assert "missing from the" in by_obj["BENCH_uninventoried.json"]


def test_x904_flags_subcommand_and_flag():
    objs = {d.obj for d in lint_paths([_fixture("x900_firing")],
                                      select=["X904"])}
    assert objs == {"ghost", "--phantom"}


def test_x905_names_the_orphan_fixture_dir():
    diag = next(iter(lint_paths([_fixture("x900_firing")],
                                select=["X905"])))
    assert diag.obj == "orphan_case"


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("x900_clean")]) == []


# ------------------------------------------------------ silence guards
def test_codec_without_both_directions_is_silent():
    files = [(
        "wire/halfcodec.py",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Half:\n"
        "    kind: str\n"
        "    size: int\n\n"
        "    def as_dict(self):\n"
        '        return {"kind": self.kind}\n',
    )]
    modules, _ = parse_sources(files)
    assert lint_drift(modules) == []


def test_catalog_without_a_docs_root_is_silent(tmp_path):
    text = "CODE_DETAILS = {\n" + "".join(
        f'    "A{n}": ("error", "x"),\n' for n in range(101, 112)
    ) + "}\n"
    (tmp_path / "catalog.py").write_text(text)
    assert lint_paths([str(tmp_path)], select=["X9"]) == []


def test_cli_without_a_readme_root_is_silent(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import argparse\n\n\n"
        "def build():\n"
        "    p = argparse.ArgumentParser()\n"
        "    sub = p.add_subparsers()\n"
        '    sub.add_parser("one")\n'
        '    sub.add_parser("two")\n'
        "    return p\n"
    )
    assert lint_paths([str(tmp_path)], select=["X9"]) == []


# ---------------------------------------------- filesystem mutations
def _mutated_clean_tree(tmp_path, rel_path, needle, replacement):
    dst = tmp_path / "tree"
    shutil.copytree(_fixture("x900_clean"), dst)
    target = dst / rel_path
    text = target.read_text(encoding="utf-8")
    assert needle in text
    target.write_text(text.replace(needle, replacement),
                      encoding="utf-8")
    return dst


def test_dropping_the_inventory_row_fires_x903(tmp_path):
    dst = _mutated_clean_tree(
        tmp_path, os.path.join("docs", "performance.md"),
        "| BENCH_grid.json | the inventoried baseline |\n", "",
    )
    diags = lint_paths([str(dst)], select=["X903"])
    assert [d.obj for d in diags] == ["BENCH_grid.json"]
    assert "missing from the" in diags[0].message


def test_unregistering_a_bench_baseline_fires_x903(tmp_path):
    dst = _mutated_clean_tree(
        tmp_path, os.path.join("benchmarks", "bench_gridfix.py"),
        '"BENCH_grid.json"', '"BENCH_other.json"',
    )
    diags = lint_paths([str(dst)], select=["X903"])
    assert [d.obj for d in diags] == ["BENCH_grid.json"]
    assert "written by no" in diags[0].message


# ----------------------------------------------------------- real tree
def _src_files():
    src = os.path.join(_repo_root(), "src")
    files = []
    for path in collect_files([src]):
        if not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            files.append((path, fh.read()))
    return files


def test_src_tree_drift_is_clean():
    diags = [d for d in lint_sources(_src_files())
             if d.code.startswith("X9")]
    assert diags == []


#: One mutation per code-side drift axis: the PR 9 malleability codecs
#: (JSON and XML) and the diagnostic-code registry itself.
_DRIFT_MUTATIONS = [
    (os.path.join("core", "policy.py"),
     '        min_world=int(d.get("min_world", 1)),\n', "", "X901"),
    (os.path.join("schema", "appschema.py"),
     '            min_world=int(root.findtext("minWorld", "1")),\n',
     "", "X901"),
    (os.path.join("lint", "catalog.py"),
     '    "V905": ("error", '
     '"effect pumped by one runtime\'s driver only"),\n',
     "", "X902"),
]


@pytest.mark.parametrize("rel_path,needle,replacement,code",
                         _DRIFT_MUTATIONS)
def test_breaking_any_drift_contract_fails_self_lint(
        rel_path, needle, replacement, code):
    target = os.path.join(_repo_root(), "src", "repro", rel_path)
    mutated = []
    found = False
    for path, text in _src_files():
        if os.path.realpath(path) == os.path.realpath(target):
            assert needle in text, f"{needle!r} not found in {rel_path}"
            text = text.replace(needle, replacement)
            found = True
        mutated.append((path, text))
    assert found, f"{rel_path} not collected"
    diags = lint_sources(mutated)
    assert any(d.code == code for d in diags), (
        f"mutating {rel_path} did not raise {code}"
    )
