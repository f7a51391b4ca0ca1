"""Rule evaluation: threshold semantics and engine wiring."""

import pytest

from repro.rules import (
    PAPER_RULE_FILE,
    RuleEvaluator,
    ScriptNotFound,
    SystemState,
    classify,
    parse_rule_file,
)
from repro.trace.events import EV_RULE_FIRE

from ..catalogued import catalogued

F, B, O = SystemState.FREE, SystemState.BUSY, SystemState.OVERLOADED


def engine_from(values):
    """Script engine returning canned values (optionally keyed by param)."""

    def engine(script, param):
        key = (script, param) if (script, param) in values else script
        if key not in values:
            raise KeyError(script)
        return values[key]

    return engine


# ------------------------------------------------------- classify()
def test_classify_less_than_rule1_prose():
    # Paper: idle < 45 → overloaded; 45 <= idle < 50 → busy; else free.
    assert classify(44, "<", 50, 45) is O
    assert classify(45, "<", 50, 45) is B
    assert classify(47, "<", 50, 45) is B
    assert classify(50, "<", 50, 45) is F
    assert classify(80, "<", 50, 45) is F


def test_classify_greater_than_rule2_prose():
    # Sockets > 900 → overloaded; > 700 → busy; else free.
    assert classify(1000, ">", 700, 900) is O
    assert classify(800, ">", 700, 900) is B
    assert classify(700, ">", 700, 900) is F
    assert classify(10, ">", 700, 900) is F


def test_classify_boundary_inclusive_variants():
    assert classify(45, "<=", 50, 45) is O
    assert classify(50, "<=", 50, 45) is B
    assert classify(900, ">=", 700, 900) is O
    assert classify(700, ">=", 700, 900) is B


def test_classify_unknown_operator():
    with pytest.raises(ValueError):
        classify(1, "!=", 2, 3)


# --------------------------------------------------- RuleEvaluator
def paper_evaluator(values):
    return RuleEvaluator(parse_rule_file(PAPER_RULE_FILE),
                         engine_from(values))


def test_simple_rule_evaluation():
    ev = paper_evaluator({"processorStatus.sh": 40.0})
    assert ev.evaluate_rule(1) is O
    ev = paper_evaluator({"processorStatus.sh": 48.0})
    assert ev.evaluate_rule(1) is B
    ev = paper_evaluator({"processorStatus.sh": 90.0})
    assert ev.evaluate_rule(1) is F


def test_param_passed_to_engine():
    seen = {}

    def engine(script, param):
        seen[script] = param
        return 0.0

    ev = RuleEvaluator(parse_rule_file(PAPER_RULE_FILE), engine)
    ev.evaluate_rule(2)
    assert seen["ntStatIpv4.sh"] == "ESTABLISHED"


@catalogued(EV_RULE_FIRE)
def test_complex_rule_end_to_end():
    # procs overloaded (r4=O), idle overloaded (r1=O), load free (r3=F)
    # → weighted 1.4 → busy; sockets busy (r2=B) → busy & busy = busy.
    ev = paper_evaluator({
        "procCount.sh": 200,        # > 150 → overloaded
        "processorStatus.sh": 30,   # < 45 → overloaded
        "loadAvg.sh": 0.5,          # <= 1 → free
        "ntStatIpv4.sh": 800,       # > 700 → busy
    })
    assert ev.evaluate_rule(5) is B


def test_complex_rule_free_gate():
    ev = paper_evaluator({
        "procCount.sh": 200,
        "processorStatus.sh": 30,
        "loadAvg.sh": 5,
        "ntStatIpv4.sh": 10,        # free gates the whole rule
    })
    assert ev.evaluate_rule(5) is F


def test_missing_script_raises():
    ev = paper_evaluator({})
    with pytest.raises(ScriptNotFound):
        ev.evaluate_rule(1)


def test_undeclared_reference_rejected():
    # Refused when the evaluator is built, before any evaluation.
    from repro.rules import ComplexRule, RuleSet, SimpleRule

    rs = RuleSet()
    for number in (1, 2):
        rs.add(SimpleRule(number=number, name=f"s{number}", script="a.sh",
                          operator=">", busy=1, overloaded=2))
    rs.add(ComplexRule(number=3, name="c", expression="r1 & r2",
                       rule_numbers=(1,)))
    with pytest.raises(ValueError, match="R008: .* r2 .*missing from "
                                         "rl_ruleNo"):
        RuleEvaluator(rs, engine_from({"a.sh": 0}))
    rs.add(ComplexRule(number=4, name="d", expression="r1 & r9"))
    with pytest.raises(ValueError, match="R001: .* undefined rule r9"):
        RuleEvaluator(rs, engine_from({"a.sh": 0}))


def test_reference_cycle_detected():
    from repro.rules import ComplexRule, RuleSet

    rs = RuleSet()
    rs.add(ComplexRule(number=1, name="a", expression="r2",
                       rule_numbers=(2,)))
    rs.add(ComplexRule(number=2, name="b", expression="r1",
                       rule_numbers=(1,)))
    with pytest.raises(ValueError, match="cycle"):
        RuleEvaluator(rs, engine_from({}))


def test_a_rule_added_later_is_checked_before_it_is_evaluated():
    from repro.rules import ComplexRule, RuleSet, SimpleRule

    rs = RuleSet()
    rs.add(SimpleRule(number=1, name="a", script="a.sh", operator=">",
                      busy=1, overloaded=2))
    ev = RuleEvaluator(rs, engine_from({"a.sh": 5}))
    assert ev.evaluate_host_state() is O
    rs.add(ComplexRule(number=2, name="ouro", expression="r2 | r1"))
    with pytest.raises(ValueError, match="R002: reference cycle: r2 -> r2"):
        ev.evaluate_host_state()
    with pytest.raises(ValueError, match="R002"):
        ev.evaluate_rule(1)


def test_host_state_most_severe_top_level():
    ev = paper_evaluator({
        "procCount.sh": 10,
        "processorStatus.sh": 90,
        "loadAvg.sh": 0.1,
        "ntStatIpv4.sh": 10,
    })
    # All sub-rules referenced by the complex rule; only rule 5 is
    # top-level, and everything is calm.
    assert ev.evaluate_host_state() is F


def test_host_state_with_root_rule():
    ev = paper_evaluator({"processorStatus.sh": 10.0})
    assert ev.evaluate_host_state(root_rule=1) is O


def test_host_state_empty_ruleset_is_free():
    from repro.rules import RuleSet

    ev = RuleEvaluator(RuleSet(), engine_from({}))
    assert ev.evaluate_host_state() is F
