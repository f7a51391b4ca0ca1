"""Rule-graph analyzer: one fixture per diagnostic code + clean case."""

import pytest

from repro.lint import Severity, lint_rule_text
from repro.rules import PAPER_RULE_FILE


def _lint_fixture(fixture_path, name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return lint_rule_text(fh.read(), filename=name)


def _codes(diags):
    return {d.code for d in diags}


def test_clean_fixture_has_no_findings(fixture_path):
    assert _lint_fixture(fixture_path, "clean.rules") == []


def test_paper_rule_file_is_clean():
    assert lint_rule_text(PAPER_RULE_FILE) == []


def test_r001_undefined_reference(fixture_path):
    diags = _lint_fixture(fixture_path, "r001_undefined_ref.rules")
    assert _codes(diags) == {"R001"}
    (d,) = diags
    assert "r9" in d.message
    assert d.obj == "combo"
    assert d.severity is Severity.ERROR


def test_r002_reference_cycle(fixture_path):
    diags = _lint_fixture(fixture_path, "r002_cycle.rules")
    assert "R002" in _codes(diags)
    cycle = next(d for d in diags if d.code == "R002")
    assert "r1" in cycle.message and "r2" in cycle.message


def test_r002_self_reference():
    text = (
        "rl_number: 1\nrl_name: ouro\nrl_type: complex\nrl_script: r1\n"
    )
    diags = lint_rule_text(text)
    assert _codes(diags) == {"R002"}


def test_r003_duplicate_number(fixture_path):
    diags = _lint_fixture(fixture_path, "r003_duplicate.rules")
    assert _codes(diags) == {"R003"}
    (d,) = diags
    assert "duplicate rl_number 1" in d.message
    assert d.obj == "load_again"


def test_r004_weight_sum(fixture_path):
    diags = _lint_fixture(fixture_path, "r004_weight_sum.rules")
    assert _codes(diags) == {"R004"}
    (d,) = diags
    assert "70%" in d.message


def test_r005_dead_rule(fixture_path):
    diags = _lint_fixture(fixture_path, "r005_dead_rule.rules")
    assert _codes(diags) == {"R005"}
    (d,) = diags
    assert "r3" in d.message


def test_r006_threshold_domain_contradiction(fixture_path):
    diags = _lint_fixture(fixture_path, "r006_threshold.rules")
    assert _codes(diags) == {"R006"}
    (d,) = diags
    assert "overloaded state unreachable" in d.message


def test_r006_threshold_ordering():
    text = (
        "rl_number: 1\nrl_name: bad\nrl_type: simple\n"
        "rl_script: loadAvg.sh\nrl_operator: >\nrl_busy: 5\nrl_overLd: 1\n"
    )
    diags = lint_rule_text(text)
    assert _codes(diags) == {"R006"}
    assert "rl_overLd must be >= rl_busy" in diags[0].message


def test_r007_busy_band_empty_is_warning(fixture_path):
    diags = _lint_fixture(fixture_path, "r007_busy_band.rules")
    assert _codes(diags) == {"R007"}
    (d,) = diags
    assert d.severity is Severity.WARNING


def test_r008_reference_missing_from_ruleno():
    text = (
        "rl_number: 1\nrl_name: load\nrl_type: simple\n"
        "rl_script: loadAvg.sh\nrl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
        "\n"
        "rl_number: 2\nrl_name: procs\nrl_type: simple\n"
        "rl_script: procCount.sh\nrl_operator: >\n"
        "rl_busy: 100\nrl_overLd: 150\n"
        "\n"
        "rl_number: 3\nrl_name: combo\nrl_type: complex\n"
        "rl_ruleNo: 1\nrl_script: r1 & r2\n"
    )
    diags = lint_rule_text(text)
    assert _codes(diags) == {"R008"}
    assert "r2" in diags[0].message


def test_r010_malformed_blocks(fixture_path):
    diags = _lint_fixture(fixture_path, "r010_malformed.rules")
    assert _codes(diags) == {"R010"}
    messages = " | ".join(d.message for d in diags)
    assert "expected 'key: value'" in messages
    assert "unknown_key" in messages
    assert "rl_busy" in messages
    assert "missing rl_script" in messages


def test_r011_unparsable_expression(fixture_path):
    diags = _lint_fixture(fixture_path, "r011_bad_expr.rules")
    assert _codes(diags) == {"R011"}


def test_diagnostics_carry_lines(fixture_path):
    diags = _lint_fixture(fixture_path, "r001_undefined_ref.rules")
    assert diags[0].line == 12  # the rl_script line of rule 2
    assert diags[0].file == "r001_undefined_ref.rules"


@pytest.mark.parametrize("name", [
    "r001_undefined_ref.rules", "r002_cycle.rules", "r003_duplicate.rules",
    "r004_weight_sum.rules", "r005_dead_rule.rules", "r006_threshold.rules",
    "r010_malformed.rules", "r011_bad_expr.rules",
])
def test_error_fixtures_all_carry_errors(fixture_path, name):
    diags = _lint_fixture(fixture_path, name)
    assert any(d.severity is Severity.ERROR for d in diags)
