"""The lint driver and the ``repro lint`` CLI: dispatch + exit codes."""

import json
import os

import pytest

from repro.cli import main
from repro.lint import LintUsageError, classify_file, lint_paths


def test_classify_file_by_extension_and_content():
    assert classify_file("a.rules", "") == "rules"
    assert classify_file("a.py", "rl_number: 1") is None
    assert classify_file("a.xml", "<applicationSchema/>") == "schema"
    assert classify_file("noext", "rl_number: 1\n") == "rules"
    assert classify_file("noext", "nothing here") is None
    assert classify_file("c.json", '{"host_classes": []}') == "cluster"
    assert classify_file("p.json", '{"policy": {}}') == "policy"
    assert classify_file("p.json", '{"triggers": []}') == "policy"
    assert classify_file("x.json", '{"other": 1}') is None
    assert classify_file("x.json", "{broken") == "json"


def test_lint_paths_requires_paths():
    with pytest.raises(LintUsageError):
        lint_paths([])


def test_lint_paths_missing_path():
    with pytest.raises(LintUsageError, match="no such file"):
        lint_paths(["/definitely/not/here"])


def test_collect_files_skips_junk_directories(tmp_path):
    from repro.lint.runner import collect_files

    (tmp_path / "a.rules").write_text("rl_number: 1\n")
    for junk in (".git", ".tox", "__pycache__", "node_modules",
                 "venv", "build", "dist", "pkg.egg-info"):
        d = tmp_path / junk
        d.mkdir()
        (d / "hidden.rules").write_text("rl_number: 9\n")
    nested = tmp_path / "configs" / "node_modules"
    nested.mkdir(parents=True)
    (nested / "deep.rules").write_text("rl_number: 9\n")

    files = collect_files([str(tmp_path)])
    assert files == [str(tmp_path / "a.rules")]


def test_collect_files_skips_hidden_files(tmp_path):
    from repro.lint.runner import collect_files

    (tmp_path / "a.rules").write_text("rl_number: 1\n")
    (tmp_path / ".secret.rules").write_text("rl_number: 9\n")
    assert collect_files([str(tmp_path)]) == [str(tmp_path / "a.rules")]


def test_lint_paths_warns_when_nothing_lintable(tmp_path):
    (tmp_path / "README.md").write_text("# hi")
    diags = lint_paths([str(tmp_path)])
    assert [d.code for d in diags] == ["L003"]


def test_python_source_is_not_a_rule_file():
    # The rule parser's own modules mention rl_number; none is linted.
    from repro.rules import parser

    src = os.path.dirname(os.path.dirname(os.path.dirname(parser.__file__)))
    assert "rl_number" in open(parser.__file__, encoding="utf-8").read()
    diags = lint_paths([src])
    assert [(d.code, d.file) for d in diags] == [("L003", src)]


def test_cluster_context_feeds_schema_check(fixture_path):
    diags = lint_paths([
        fixture_path("s201_unmeetable.schema.xml"),
        fixture_path("cluster_small.json"),
    ])
    assert "S201" in {d.code for d in diags}


def test_schema_alone_skips_s201(fixture_path):
    diags = lint_paths([fixture_path("s201_unmeetable.schema.xml")])
    assert "S201" not in {d.code for d in diags}


def test_invalid_xml_is_s200(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<applicationSchema><name>oops")
    diags = lint_paths([str(bad)])
    assert [d.code for d in diags] == ["S200"]


def test_unloadable_policy_is_p100(tmp_path):
    bad = tmp_path / "bad.policy.json"
    bad.write_text('{"policy": {"name": "x", "wrong_key": 1}}')
    diags = lint_paths([str(bad)])
    assert [d.code for d in diags] == ["P100"]


def test_walked_binary_and_skipped_files_are_never_read(tmp_path, capsys):
    """The extension decides before the file is read: a Latin-1 module
    is skipped as Python, and a PNG the walk finds, which only a sniff
    could have made a rule file, is skipped for not being text."""
    examples = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "examples", "configs", "paper.rules",
    )
    with open(examples, encoding="utf-8") as fh:
        (tmp_path / "paper.rules").write_text(fh.read(), encoding="utf-8")
    png = tmp_path / "fig.png"
    png.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\xff")
    (tmp_path / "plot.py").write_bytes("# caf\xe9\n".encode("latin-1"))
    assert main(["lint", str(tmp_path)]) == 0, capsys.readouterr().out
    # Named on the command line, the unreadable file is still L001.
    diags = lint_paths([str(png)])
    assert [d.code for d in diags] == ["L001"]
    assert lint_paths([str(tmp_path / "plot.py")])[0].code == "L003"


# ------------------------------------------------------------------ CLI
@pytest.mark.parametrize("name", [
    "r001_undefined_ref.rules",
    "r002_cycle.rules",
    "r004_weight_sum.rules",
    "r005_dead_rule.rules",
    "p101_pingpong.policy.json",
])
def test_cli_exits_nonzero_on_error_fixture(fixture_path, name, capsys):
    assert main(["lint", fixture_path(name)]) == 1
    out = capsys.readouterr().out
    assert name.split("_")[0].upper()[:4] in out or "error" in out


def test_cli_exits_nonzero_on_unsatisfiable_schema(fixture_path, capsys):
    rc = main([
        "lint",
        fixture_path("s201_unmeetable.schema.xml"),
        fixture_path("cluster_small.json"),
    ])
    assert rc == 1
    assert "S201" in capsys.readouterr().out


def test_cli_exit_zero_on_clean_fixtures(fixture_path, capsys):
    rc = main(["lint", fixture_path("clean.rules"),
               fixture_path("clean.policy.json"),
               fixture_path("clean.schema.xml")])
    assert rc == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_warning_exits_zero_unless_strict(fixture_path, capsys):
    path = fixture_path("r007_busy_band.rules")
    assert main(["lint", path]) == 0
    assert main(["lint", path, "--strict"]) == 1


def test_cli_json_format(fixture_path, capsys):
    assert main(["lint", fixture_path("r002_cycle.rules"),
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["summary"]["errors"] >= 1
    codes = [d["code"] for d in doc["diagnostics"]]
    assert "R002" in codes


def test_cli_usage_error_is_exit_2(capsys):
    assert main(["lint", "/definitely/not/here"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_lints_directories(fixtures, capsys):
    rc = main(["lint", fixtures])
    assert rc == 1  # the fixture dir is full of deliberate errors
    out = capsys.readouterr().out
    for code in ("R001", "R002", "R003", "R004", "R005", "R006",
                 "P101", "P102", "P103", "P104"):
        assert code in out, code


def test_examples_configs_are_clean(capsys):
    examples = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "examples",
    )
    rc = main(["lint", examples, "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 error(s), 0 warning(s)" in out
