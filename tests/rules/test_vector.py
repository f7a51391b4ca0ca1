"""Vectorized rule evaluation ≡ the scalar evaluator, host by host.

``classify_column`` against ``classify`` on every operator's boundary
values; ``VectorRuleEvaluator`` against a per-host ``RuleEvaluator``
loop on randomized measurement columns (paper ruleset and synthetic
sets) and on every combination of complex-rule inputs; and the same
error surface (cycles, undeclared references, unknown scripts).
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
    VectorRuleEvaluator,
    classify,
    classify_column,
    paper_ruleset,
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


def _assert_equiv(ruleset, columns):
    """Both widths agree row by row; returns the column's codes."""
    width = len(next(iter(columns.values())))
    vector = VectorRuleEvaluator(
        ruleset, _column_engine(columns)).evaluate_host_states()
    assert vector.shape == (width,)
    assert vector.dtype == np.int8
    for row in range(width):
        state = RuleEvaluator(
            ruleset, _scalar_engine(columns, row)).evaluate_host_state()
        assert vector[row] == int(state), f"host row {row}"
    return vector.tolist()


def test_paper_ruleset_equivalence_on_random_columns():
    rng = seeded_generator(17)
    columns = {
        "processorStatus.sh": rng.uniform(0, 100, size=64),
        "ntStatIpv4.sh": rng.uniform(0, 1200, size=64),
        "loadAvg.sh": rng.uniform(0, 4, size=64),
        "procCount.sh": rng.uniform(0, 300, size=64),
    }
    _assert_equiv(paper_ruleset(), columns)


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


@pytest.mark.parametrize("seed", [3, 5])
def test_synthetic_ruleset_equivalence(seed):
    rng = seeded_generator(23 + seed)
    columns = {
        "a.sh": rng.uniform(0, 3, size=40),
        "b.sh": rng.uniform(0, 8, size=40),
    }
    _assert_equiv(_synthetic_ruleset(), columns)


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


#: Complex rules over rules 1-3, each input level in 0..2, with the
#: state codes both widths returned for them before the level-to-state
#: step was folded into ``round_levels``: one digit per input
#: combination, rule 1's level the most significant.
PINNED_COMPLEX = {
    "( 40% * r1 + 30% * r2 + 30% * r3 )": "001011111011111112111112122",
    "( 50% * r1 + 50% * r2 ) & r3": "000011011011011012011012012",
    "r1 | ( 60% * r2 + 40% * r3 )": "001111122111111122222222222",
    "( 70% * ( r1 & r2 ) + 30% * r3 ) | r1":
        "001001001111111111222222222",
    "( 25% * r1 + 75% * r2 ) & ( 50% * r3 + 50% * r1 )":
        "000011011000111112111111122",
}


@pytest.mark.parametrize("expression", sorted(PINNED_COMPLEX))
def test_complex_rule_codes_at_both_widths(expression):
    """Weighted sums and ``&``/``|`` over every combination of input
    levels: both widths return the pinned codes, and a complex rule's
    level is an int state code at either width."""
    rs = RuleSet()
    for number in (1, 2, 3):
        rs.add(SimpleRule(number=number, name=f"x{number}",
                          script=f"x{number}.sh", operator=">",
                          busy=0.5, overloaded=1.5))
    rs.add(ComplexRule(number=4, name="c", expression=expression,
                       rule_numbers=(1, 2, 3)))
    combos = np.array([(a, b, c) for a in range(3) for b in range(3)
                       for c in range(3)], dtype=float)
    columns = {f"x{i + 1}.sh": combos[:, i] for i in range(3)}
    codes = _assert_equiv(rs, columns)
    assert "".join(map(str, codes)) == PINNED_COMPLEX[expression]
    level = VectorRuleEvaluator(rs, _column_engine(columns))._rule_level(4)
    assert np.issubdtype(level.dtype, np.integer)
    for row in range(len(combos)):
        one = RuleEvaluator(rs, _scalar_engine(columns, row))._rule_level(4)
        assert type(one) is int and one == codes[row]


def test_cycle_detection_matches_scalar():
    rs = RuleSet()
    rs.add(ComplexRule(number=1, name="x", expression="r2 & r2",
                       rule_numbers=(2,)))
    rs.add(ComplexRule(number=2, name="y", expression="r1 | r1",
                       rule_numbers=(1,)))
    engine = _column_engine({})
    with pytest.raises(ValueError, match="cycle"):
        VectorRuleEvaluator(rs, engine)
    with pytest.raises(ValueError, match="cycle"):
        RuleEvaluator(rs, lambda s, p="": 0.0)


def test_undeclared_reference_rejected():
    rs = RuleSet()
    for number in (1, 7):
        rs.add(SimpleRule(number=number, name=f"s{number}", script="a.sh",
                          operator=">", busy=1.0, overloaded=2.0))
    rs.add(ComplexRule(number=2, name="bad", expression="r1 & r7",
                       rule_numbers=(1,)))
    with pytest.raises(ValueError, match="R008"):
        VectorRuleEvaluator(rs, _column_engine({"a.sh": np.zeros(2)}))


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
