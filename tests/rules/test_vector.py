"""Vectorized rule evaluation ≡ the scalar evaluator, host by host.

``classify_column`` against ``classify`` on every operator's boundary
values; ``VectorRuleEvaluator`` against a per-host ``RuleEvaluator``
loop on randomized measurement columns (paper ruleset and synthetic
sets, n_levels=3 and 5); and the same error surface (cycles,
undeclared references, unknown scripts).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rules import (
    ComplexRule,
    RuleEvaluator,
    RuleSet,
    ScriptNotFound,
    SimpleRule,
    SystemState,
    VectorRuleEvaluator,
    classify,
    classify_column,
    paper_ruleset,
)
from repro.rules.expr import (
    round_levels,
    states_from_levels,
)
from repro.sim.rng import seeded_generator

OPERATORS = ("<", "<=", ">", ">=")


@pytest.mark.parametrize("operator", OPERATORS)
def test_classify_column_matches_scalar_on_boundaries(operator):
    busy, overloaded = (50.0, 45.0) if operator.startswith("<") \
        else (50.0, 55.0)
    # Exact thresholds, one ulp around them, and NaN.
    values = [44.0, 45.0, 45.0000000001, 49.999, 50.0, 50.001,
              54.999, 55.0, 55.1, float("nan")]
    column = classify_column(np.array(values), operator, busy,
                             overloaded)
    for value, got in zip(values, column):
        expected = classify(value, operator, busy, overloaded)
        assert got == int(expected), (operator, value)


def test_classify_column_rejects_unknown_operator():
    with pytest.raises(ValueError):
        classify_column(np.zeros(3), "!=", 1.0, 2.0)
    with pytest.raises(ValueError):
        classify(0.0, "!=", 1.0, 2.0)


def _column_engine(columns):
    return lambda script, param="": columns[script]


def _scalar_engine(columns, row):
    return lambda script, param="": float(columns[script][row])


def _assert_equiv(ruleset, columns, n_levels=3, root_rule=None):
    width = len(next(iter(columns.values())))
    vector = VectorRuleEvaluator(
        ruleset, _column_engine(columns), n_levels=n_levels
    ).evaluate_host_states(root_rule=root_rule)
    assert vector.shape == (width,)
    for row in range(width):
        scalar = RuleEvaluator(
            ruleset, _scalar_engine(columns, row), n_levels=n_levels
        ).evaluate_host_state(root_rule=root_rule)
        assert vector[row] == int(scalar), f"host row {row}"


def test_paper_ruleset_equivalence_on_random_columns():
    rng = seeded_generator(17)
    columns = {
        "processorStatus.sh": rng.uniform(0, 100, size=64),
        "ntStatIpv4.sh": rng.uniform(0, 1200, size=64),
        "loadAvg.sh": rng.uniform(0, 4, size=64),
        "procCount.sh": rng.uniform(0, 300, size=64),
    }
    _assert_equiv(paper_ruleset(), columns)
    # Designated-root evaluation too (the Figure 4 complex rule).
    _assert_equiv(paper_ruleset(), columns, root_rule=5)


def _synthetic_ruleset():
    rs = RuleSet()
    rs.add(SimpleRule(number=1, name="a", script="a.sh", operator=">",
                      busy=1.0, overloaded=2.0))
    rs.add(SimpleRule(number=2, name="b", script="b.sh", operator="<=",
                      busy=5.0, overloaded=3.0))
    rs.add(ComplexRule(number=3, name="c",
                       expression="( 60% * r1 + 40% * r2 ) | r1",
                       rule_numbers=(1, 2)))
    return rs


@pytest.mark.parametrize("n_levels", [3, 5])
def test_synthetic_ruleset_equivalence(n_levels):
    rng = seeded_generator(23 + n_levels)
    columns = {
        "a.sh": rng.uniform(0, 3, size=40),
        "b.sh": rng.uniform(0, 8, size=40),
    }
    _assert_equiv(_synthetic_ruleset(), columns, n_levels=n_levels)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=32))
@settings(max_examples=100, deadline=None)
def test_weighted_sum_rounding_equivalence(values):
    """The '&'-of-weighted-sum rounding path, under hypothesis."""
    columns = {
        "processorStatus.sh": np.array(values),
        "ntStatIpv4.sh": np.array(values) * 12.0,
        "loadAvg.sh": np.array(values) / 25.0,
        "procCount.sh": np.array(values) * 3.0,
    }
    _assert_equiv(paper_ruleset(), columns)


def test_round_levels_and_states_from_levels():
    levels = np.array([-1.0, 0.4, 0.5, 1.49, 1.5, 2.4, 9.0])
    assert round_levels(np, levels).tolist() == [0, 0, 1, 1, 2, 2, 2]
    assert states_from_levels(np, np.array([0, 1, 2])).tolist() == [
        int(SystemState.FREE), int(SystemState.BUSY),
        int(SystemState.OVERLOADED)]
    # 5-level sets collapse onto thirds exactly like
    # SystemState.from_level.
    got = states_from_levels(np, np.arange(5), n_levels=5)
    expected = [int(SystemState.from_level(i, n_levels=5))
                for i in range(5)]
    assert got.tolist() == expected


def test_cycle_detection_matches_scalar():
    rs = RuleSet()
    rs.add(ComplexRule(number=1, name="x", expression="r2 & r2",
                       rule_numbers=(2,)))
    rs.add(ComplexRule(number=2, name="y", expression="r1 | r1",
                       rule_numbers=(1,)))
    engine = _column_engine({})
    with pytest.raises(ValueError, match="cycle"):
        VectorRuleEvaluator(rs, engine).evaluate_rule(1)
    with pytest.raises(ValueError, match="cycle"):
        RuleEvaluator(rs, lambda s, p="": 0.0).evaluate_rule(1)


def test_undeclared_reference_rejected():
    rs = RuleSet()
    rs.add(SimpleRule(number=1, name="a", script="a.sh", operator=">",
                      busy=1.0, overloaded=2.0))
    rs.add(ComplexRule(number=2, name="bad", expression="r1 & r7",
                       rule_numbers=(1,)))
    with pytest.raises(ValueError, match="not listed"):
        VectorRuleEvaluator(
            rs, _column_engine({"a.sh": np.zeros(2)})
        ).evaluate_rule(2)


def test_unknown_script_raises_scriptnotfound():
    rs = RuleSet()
    rs.add(SimpleRule(number=1, name="a", script="missing.sh",
                      operator=">", busy=1.0, overloaded=2.0))
    with pytest.raises(ScriptNotFound):
        VectorRuleEvaluator(rs, _column_engine({})).evaluate_rule(1)


def test_empty_ruleset_raises_for_unknown_width():
    with pytest.raises(ValueError, match="width"):
        VectorRuleEvaluator(
            RuleSet(), _column_engine({})
        ).evaluate_host_states()
