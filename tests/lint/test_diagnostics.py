"""The diagnostic framework: reporters, ordering, exit codes.  The
SARIF reporter is the source self-lint's (``tests/srclint``)."""

import json

from repro.lint import (
    Diagnostic,
    JSON_REPORT_VERSION,
    Severity,
    exit_code,
    render_json,
    render_text,
    sort_diagnostics,
    summarize,
)
from tests.srclint import CODE_DETAILS, KNOWN_CODES, render_sarif


def _diag(code="R001", severity=Severity.ERROR, **kw):
    defaults = dict(message="boom", file="a.rules", line=3, obj="load")
    defaults.update(kw)
    return Diagnostic(code=code, severity=severity, **defaults)


def test_render_text_line_format():
    text = render_text([_diag()])
    assert "a.rules:3: error R001: boom [load]" in text
    assert "1 error(s), 0 warning(s), 0 info(s)" in text


def test_render_text_without_location():
    d = Diagnostic(code="P101", severity=Severity.WARNING, message="m",
                   file=None, line=None, obj=None)
    assert d.render() == "<input>: warning P101: m"


def test_json_report_is_schema_stable():
    doc = json.loads(render_json([
        _diag(),
        _diag(code="S203", severity=Severity.WARNING, line=None),
    ]))
    assert doc["version"] == JSON_REPORT_VERSION
    assert doc["summary"] == {"errors": 1, "warnings": 1, "infos": 0}
    assert len(doc["diagnostics"]) == 2
    for entry in doc["diagnostics"]:
        # The exact key set AND order is the JSON contract.
        assert list(entry) == [
            "code", "severity", "file", "line", "object", "message",
        ]
    # Sorted by (file, line, code); the line-less S203 sorts first.
    assert doc["diagnostics"][0]["code"] == "S203"
    assert doc["diagnostics"][0]["severity"] == "warning"
    assert doc["diagnostics"][1]["code"] == "R001"


def test_sorting_is_by_file_line_code():
    d1 = _diag(file="b.rules", line=1)
    d2 = _diag(file="a.rules", line=9)
    d3 = _diag(file="a.rules", line=2, code="R005")
    d4 = _diag(file="a.rules", line=2, code="R002")
    ordered = sort_diagnostics([d1, d2, d3, d4])
    assert ordered == [d4, d3, d2, d1]


def test_exit_codes():
    error = _diag()
    warning = _diag(severity=Severity.WARNING)
    info = _diag(severity=Severity.INFO)
    assert exit_code([]) == 0
    assert exit_code([info]) == 0
    assert exit_code([warning]) == 0
    assert exit_code([warning], strict=True) == 1
    assert exit_code([error]) == 1
    assert exit_code([info, warning, error]) == 1


def test_summarize_counts():
    counts = summarize([
        _diag(), _diag(severity=Severity.WARNING),
        _diag(severity=Severity.INFO), _diag(),
    ])
    assert counts == {"errors": 2, "warnings": 1, "infos": 1}


# ----------------------------------------------------------------- SARIF
def test_render_sarif_structure():
    doc = json.loads(render_sarif([
        _diag(code="D301"),
        _diag(code="C701", severity=Severity.WARNING, line=7),
    ]))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-srclint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    # The rules array is the full registered catalogue (findings or
    # not), sorted; the finding codes are of course among them.
    assert rule_ids == sorted(KNOWN_CODES)
    assert {"C701", "D301"} <= set(rule_ids)
    assert len(run["results"]) == 2


def test_render_sarif_rules_carry_catalog_metadata():
    # Every registered code appears exactly once, with its catalogue
    # description, severity level and docs link.
    doc = json.loads(render_sarif([]))
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    assert ids == sorted(KNOWN_CODES)
    assert len(ids) == len(set(ids))  # exactly once each
    levels = {"error": "error", "warning": "warning", "info": "note"}
    for rule in rules:
        severity, description = CODE_DETAILS[rule["id"]]
        assert rule["shortDescription"]["text"] == description
        assert rule["helpUri"].startswith("docs/srclint.md#")
        assert rule["defaultConfiguration"]["level"] == levels[severity]


def test_render_sarif_unregistered_code_still_renders():
    doc = json.loads(render_sarif([_diag(code="Z999")]))
    run = doc["runs"][0]
    assert "Z999" in [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert run["results"][0]["ruleId"] == "Z999"


def test_render_sarif_levels_and_location():
    doc = json.loads(render_sarif([
        _diag(severity=Severity.ERROR),
        _diag(code="D305", severity=Severity.WARNING),
        _diag(code="T505", severity=Severity.INFO),
    ]))
    results = doc["runs"][0]["results"]
    assert {r["ruleId"]: r["level"] for r in results} == {
        "R001": "error", "D305": "warning", "T505": "note",
    }
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "a.rules"
    assert loc["region"]["startLine"] == 3


def test_render_sarif_without_location():
    doc = json.loads(render_sarif([
        Diagnostic(code="L003", severity=Severity.WARNING, message="m"),
    ]))
    result = doc["runs"][0]["results"][0]
    assert "locations" not in result


def test_render_sarif_empty_run_is_valid():
    doc = json.loads(render_sarif([]))
    assert doc["runs"][0]["results"] == []
    # The rule metadata is always present — a clean run still uploads
    # the full catalogue.
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted(KNOWN_CODES)
