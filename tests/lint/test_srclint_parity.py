"""V900 parity: the one contract the decision plane states twice.

Fixture-driven checks for V905, the silence guard, and the acceptance
claim that matters most: deleting a live effect dispatch must flip the
self-lint red.
"""

import os
from collections import Counter

import pytest

from repro.lint import collect_files, lint_paths
from repro.lint.srclint import lint_sources


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


# ------------------------------------------------------------ fixtures
def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("v900_firing")], select=["V9"])
    assert Counter(d.code for d in diags) == {"V905": 1}


def test_v905_reports_at_the_contract_and_names_the_lagging_side():
    diag = next(iter(lint_paths([_fixture("v900_firing")],
                                select=["V905"])))
    assert diag.obj == "Expand"
    assert diag.file.endswith(os.path.join("entity", "outbox.py"))
    assert "not by the live driver" in diag.message


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("v900_clean")]) == []


# ------------------------------------------------------- silence guard
def test_v905_silent_without_a_live_side():
    # Sim modules only: pump sets cannot diverge between runtimes.
    firing = _fixture("v900_firing")
    diags = lint_paths(
        [os.path.join(firing, "entity"),
         os.path.join(firing, "registry")],
        select=["V905"],
    )
    assert diags == []


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


def test_src_tree_parity_is_clean():
    diags = [d for d in lint_sources(_src_files())
             if d.code.startswith("V9")]
    assert diags == []


#: One mutation per parity contract: the live driver stops dispatching
#: ``Deliver``.  It must flip the self-lint red — the static half of
#: what the sim/live parity tests chase dynamically.
_PARITY_MUTATIONS = [
    (os.path.join("live", "registry.py"),
     "(effect, Deliver)", "(effect, ())", "V905"),
]


@pytest.mark.parametrize("rel_path,needle,replacement,code",
                         _PARITY_MUTATIONS)
def test_breaking_any_parity_contract_fails_self_lint(
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
