"""Runner + CLI behaviors for python-source linting.

Exit codes on mixed-severity runs, ``--select``/``--ignore`` routing,
inline-suppression parsing, path dedupe, symlink handling, and the
self-lint gate over ``src/``.
"""

import os

from repro.cli import main
from repro.lint import lint_paths
from repro.lint.runner import collect_files


def _fixture(name):
    return os.path.join(os.path.dirname(__file__), "fixtures",
                        "srclint", name)


def _repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(__file__)))


def _codes(diags):
    return [d.code for d in diags]


# --------------------------------------------------------- exit codes
def test_mixed_severity_run_exits_one_without_strict(capsys):
    # d300_firing carries both errors (D301-D303) and warnings
    # (D304-D306); errors dominate the exit code.
    assert main(["lint", _fixture("d300_firing")]) == 1
    out = capsys.readouterr().out
    assert "D301" in out and "D306" in out


def test_warning_only_selection_needs_strict_to_fail(capsys):
    path = _fixture("d300_firing")
    assert main(["lint", path, "--select", "D305"]) == 0
    assert main(["lint", path, "--select", "D305", "--strict"]) == 1


# ------------------------------------------------------ select/ignore
def test_select_narrows_to_listed_codes():
    diags = lint_paths([_fixture("d300_firing")], select=["D301"])
    assert set(_codes(diags)) == {"D301"}


def test_ignore_drops_listed_codes():
    diags = lint_paths([_fixture("d300_firing")],
                       ignore=["D301", "D302", "D303"])
    assert set(_codes(diags)) == {"D304", "D305", "D306"}


def test_select_matches_by_prefix():
    diags = lint_paths([_fixture("d300_firing")], select=["D"])
    assert set(_codes(diags)) == {
        "D301", "D302", "D303", "D304", "D305", "D306",
    }


def test_cli_comma_separated_codes(capsys):
    rc = main(["lint", _fixture("d300_firing"),
               "--ignore", "D301,D302,D303,D304,D305,D306"])
    assert rc == 0
    assert "0 error(s)" in capsys.readouterr().out


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
    assert main(["lint", str(bad)]) == 1


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


# --------------------------------------------------------------- L006
def test_valid_prefixes_pass_quietly():
    diags = lint_paths([_fixture("d300_firing")], select=["D", "C70"])
    assert "L006" not in _codes(diags)


def test_unknown_select_prefix_is_l006(capsys):
    rc = main(["lint", _fixture("d300_clean"), "--select", "C79"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "L006" in out and "'C79'" in out


def test_unknown_ignore_prefix_is_l006():
    diags = lint_paths([_fixture("d300_clean")], ignore=["Q1"])
    assert _codes(diags) == ["L006"]
    assert "--ignore" in diags[0].message


def test_l006_survives_its_own_filter():
    # --select Q9 selects nothing, including L006 itself; the typo
    # diagnostic is appended after filtering so it still surfaces.
    diags = lint_paths([_fixture("d300_clean")], select=["Q9"])
    assert _codes(diags) == ["L006"]


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
    rc = main(["lint", src, "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 error(s), 0 warning(s)" in out


def test_src_tree_self_lint_covers_new_families(capsys):
    # C700 and D300 run as part of the default pass set: narrowing to
    # them still exercises the whole tree and must stay clean.
    src = os.path.join(_repo_root(), "src")
    rc = main(["lint", src, "--strict", "--select", "C7,D3"])
    out = capsys.readouterr().out
    assert rc == 0, out
