"""Rule-file parsing: the paper's exact format, errors."""

import pytest

from repro.rules import (
    PAPER_RULE_FILE,
    ComplexRule,
    RuleParseError,
    SimpleRule,
    parse_rule_file,
    parse_rules,
)


def test_parse_paper_rule_file():
    ruleset = parse_rule_file(PAPER_RULE_FILE)
    assert len(ruleset.rules) == 5
    r1 = ruleset.get(1)
    assert isinstance(r1, SimpleRule)
    assert r1.name == "processorStatus"
    assert r1.script == "processorStatus.sh"
    assert r1.operator == "<"
    assert r1.busy == 50 and r1.overloaded == 45
    assert r1.param == ""

    r2 = ruleset.get(2)
    assert r2.param == "ESTABLISHED"
    assert r2.operator == ">"
    assert r2.busy == 700 and r2.overloaded == 900

    r5 = ruleset.get(5)
    assert isinstance(r5, ComplexRule)
    assert r5.rule_numbers == (4, 1, 3, 2)
    assert "40%" in r5.expression


def test_missing_required_key():
    text = "rl_number: 1\nrl_name: x\nrl_type: simple\nrl_script: a.sh\n"
    with pytest.raises(RuleParseError, match="rl_operator"):
        parse_rules(text)


def test_unknown_type():
    text = "rl_number: 1\nrl_name: x\nrl_type: quantum\n"
    with pytest.raises(RuleParseError, match="rl_type"):
        parse_rules(text)


def test_unknown_key_rejected():
    with pytest.raises(RuleParseError, match="unknown key"):
        parse_rules("bogus: 1\n")


def test_line_without_colon_rejected():
    with pytest.raises(RuleParseError, match="key: value"):
        parse_rules("rl_number 1\n")


def test_duplicate_key_in_rule_rejected():
    text = "rl_number: 1\nrl_name: a\nrl_name: b\n"
    with pytest.raises(RuleParseError, match="duplicate"):
        parse_rules(text)


def test_duplicate_rule_number_rejected():
    two = PAPER_RULE_FILE.split("\n\n")[0]
    with pytest.raises(ValueError, match="R003: duplicate rl_number 1"):
        parse_rule_file(two + "\n\n" + two)


def test_comments_and_blank_lines_ignored():
    text = "# comment\n\nrl_number: 7\nrl_name: z\nrl_type: complex\nrl_script: r1 & r2\n"
    (rule,) = parse_rules(text)
    assert rule.number == 7


def test_threshold_sanity_validation():
    with pytest.raises(ValueError, match="rl_overLd"):
        SimpleRule(number=1, name="bad", script="s.sh", operator="<",
                   busy=10, overloaded=20)
    with pytest.raises(ValueError, match="rl_overLd"):
        SimpleRule(number=1, name="bad", script="s.sh", operator=">",
                   busy=20, overloaded=10)


def test_operator_validation():
    with pytest.raises(ValueError, match="operator"):
        SimpleRule(number=1, name="bad", script="s.sh", operator="==",
                   busy=1, overloaded=1)


def test_empty_complex_expression_rejected():
    with pytest.raises(ValueError, match="R011: unparsable expression"):
        ComplexRule(number=1, name="bad", expression="  ")


# --------------------------------------------------- error paths (lint PR)
def test_non_numeric_rule_number():
    text = "rl_number: one\nrl_name: x\nrl_type: complex\nrl_script: r1\n"
    with pytest.raises(RuleParseError,
                       match="rl_number must be an integer"):
        parse_rules(text)


def test_non_numeric_thresholds():
    text = (
        "rl_number: 1\nrl_name: x\nrl_type: simple\nrl_script: a.sh\n"
        "rl_operator: >\nrl_busy: lots\nrl_overLd: 2\n"
    )
    with pytest.raises(RuleParseError, match="rl_busy must be numeric"):
        parse_rules(text)


def test_bad_rule_number_order_list():
    text = (
        "rl_number: 5\nrl_name: cmp\nrl_type: complex\n"
        "rl_ruleNo: 4 one 3\nrl_script: r4 & r3\n"
    )
    with pytest.raises(RuleParseError, match="rl_ruleNo"):
        parse_rules(text)


def test_missing_rl_type_defaults_to_simple():
    text = (
        "rl_number: 1\nrl_name: x\nrl_script: a.sh\n"
        "rl_operator: >\nrl_busy: 1\nrl_overLd: 2\n"
    )
    (rule,) = parse_rules(text)
    assert isinstance(rule, SimpleRule)


def test_missing_rl_type_still_requires_simple_keys():
    text = "rl_number: 1\nrl_name: x\nrl_script: a.sh\n"
    with pytest.raises(RuleParseError, match="rl_operator"):
        parse_rules(text)


def test_keys_before_first_rl_number_rejected():
    text = "rl_name: orphan\nrl_number: 1\n"
    with pytest.raises(RuleParseError, match="missing rl_number"):
        parse_rules(text)


def test_scan_blocks_collects_errors_leniently():
    from repro.rules.parser import scan_blocks

    text = (
        "rl_number: 1\nrl_name: a\nbogus: 1\nrl_name: dup\n"
        "no colon here\nrl_number: 2\nrl_name: b\n"
    )
    findings = []
    blocks = scan_blocks(text, findings)
    assert len(blocks) == 2
    assert blocks[0].fields["rl_name"] == "a"
    assert blocks[1].start_line == 6
    messages = [d.message for d in findings]
    assert any("unknown key" in m for m in messages)
    assert any("duplicate key" in m for m in messages)
    assert any("key: value" in m for m in messages)
    assert [d.line for d in findings] == [3, 4, 5]
    assert {d.code for d in findings} == {"R010"}


def test_a_refused_file_carries_every_block_problem():
    text = (
        "bogus: 1\n"
        "rl_number: 1\nrl_name: a\nrl_type: simple\nrl_script: a.sh\n"
        "\n"
        "rl_number: two\nrl_name: b\nrl_type: complex\nrl_script: r1 &\n"
    )
    with pytest.raises(RuleParseError, match="line 1: R010") as refused:
        parse_rules(text)
    found = {(d.code, d.line) for d in refused.value.findings}
    assert ("R010", 1) in found  # the bad line
    assert ("R010", 2) in found  # rule 1 misses its operator/thresholds
    assert ("R010", 7) in found  # rule "b" has no integer number
