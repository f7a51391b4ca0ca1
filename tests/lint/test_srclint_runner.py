"""The source self-lint's driver, ``python -m tests.srclint``.

Exit codes on mixed-severity runs, inline-suppression parsing, path
dedupe, symlink handling, and the self-lint gate over ``src/`` and
``examples/``.
"""

import os

from repro.lint.runner import collect_files
from tests.srclint import lint_paths, main


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


def _fixture(name):
    return os.path.join(_repo_root(), "tests", "srclint", "fixtures", name)


def _codes(diags):
    return [d.code for d in diags]


# --------------------------------------------------------- exit codes
def test_mixed_severity_run_exits_one_without_strict(capsys):
    # d300_firing carries both errors (D301-D303) and warnings
    # (D304-D306); errors dominate the exit code.
    assert main([_fixture("d300_firing")]) == 1
    out = capsys.readouterr().out
    assert "D301" in out and "D306" in out


def test_warning_only_selection_needs_strict_to_fail(tmp_path):
    # A run whose only finding is a warning (D305).
    mod = tmp_path / "sim" / "order.py"
    mod.parent.mkdir()
    mod.write_text("def f(xs):\n    return list(set(xs))\n")
    assert _codes(lint_paths([str(tmp_path)])) == ["D305"]
    assert main([str(tmp_path)]) == 0
    assert main([str(tmp_path), "--strict"]) == 1


# ------------------------------------------------------- suppressions
def test_suppression_fixture_parses_as_expected():
    diags = lint_paths([_fixture("suppress")])
    codes = _codes(diags)
    # skip[D301] and the blanket skip silence their lines; the
    # skip[D999] line keeps its D301 and earns an unknown-code L005.
    assert sorted(codes) == ["D301", "L005"]
    l005 = next(d for d in diags if d.code == "L005")
    assert "D999" in l005.message


def test_suppression_in_docstring_is_inert(tmp_path):
    mod = tmp_path / "sim" / "doc.py"
    mod.parent.mkdir()
    mod.write_text(
        '"""Docs may show ``# repro-lint: skip[D301]`` safely."""\n'
        "import time\n\n\n"
        "def f():\n"
        "    return time.time()\n"
    )
    diags = lint_paths([str(tmp_path)])
    assert _codes(diags) == ["D301"]


def test_syntax_error_is_l004(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    diags = lint_paths([str(tmp_path)])
    assert _codes(diags) == ["L004"]
    assert main([str(bad)]) == 1


# --------------------------------------------------- path collection
def test_overlapping_path_args_dedupe(tmp_path):
    sub = tmp_path / "sim"
    sub.mkdir()
    target = sub / "x.py"
    target.write_text("import time\n\ndef f():\n    return time.time()\n")

    once = collect_files([str(tmp_path)])
    twice = collect_files([str(tmp_path), str(sub), str(target)])
    assert once == twice == [str(target)]

    # The duplicated D301 must not be reported twice either.
    diags = lint_paths([str(tmp_path), str(sub), str(target)])
    assert _codes(diags) == ["D301"]


def test_symlinked_file_is_collected_once(tmp_path):
    real = tmp_path / "a.rules"
    real.write_text("rl_number: 1\n")
    os.symlink(real, tmp_path / "alias.rules")
    assert collect_files([str(tmp_path)]) == [str(real)]


def test_symlink_directory_cycle_terminates(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "a.rules").write_text("rl_number: 1\n")
    os.symlink(tmp_path, sub / "loop")
    files = collect_files([str(tmp_path)])
    assert files == [str(sub / "a.rules")]


# ------------------------------ multi-family same-line suppressions
def _sleep_probe(tmp_path, suffix):
    # One line carrying two diagnostics from different families:
    # D306 (a real sleep in sim scope) and C702 (blocking under a lock).
    mod = tmp_path / "sim" / "probe.py"
    mod.parent.mkdir()
    mod.write_text(
        "import threading\n"
        "import time\n\n\n"
        "class Probe:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        threading.Thread(target=self.run).start()\n\n"
        "    def run(self):\n"
        "        with self._lock:\n"
        f"            time.sleep(0.1){suffix}\n"
    )
    return str(tmp_path)


def test_one_line_can_carry_two_families(tmp_path):
    diags = lint_paths([_sleep_probe(tmp_path, "")])
    assert sorted(_codes(diags)) == ["C702", "D306"]
    assert {d.line for d in diags} == {12}


def test_multi_family_suppression_silences_both(tmp_path):
    diags = lint_paths([_sleep_probe(
        tmp_path, "  # repro-lint: skip[C702,D306]")])
    assert diags == []


def test_partial_suppression_keeps_the_other_family(tmp_path):
    diags = lint_paths([_sleep_probe(
        tmp_path, "  # repro-lint: skip[C702]")])
    assert _codes(diags) == ["D306"]



# ---------------------------------------------------------- self-lint
def test_src_tree_passes_strict_self_lint(capsys):
    src = os.path.join(_repo_root(), "src")
    rc = main([src, "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 error(s), 0 warning(s)" in out


def test_src_tree_self_lint_covers_new_families(capsys):
    # CI's invocation: both families over src/ and examples/, strict.
    rc = main([os.path.join(_repo_root(), "src"),
               os.path.join(_repo_root(), "examples"), "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
