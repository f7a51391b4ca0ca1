"""Complex-rule expression grammar and evaluation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rules import ExprError, SystemState, parse_expression
from repro.rules.expr import (
    Combine,
    RuleRef,
    WeightedSum,
    compile_node,
    round_levels,
    scalar,
)

from .reference import evaluate

F, B, O = SystemState.FREE, SystemState.BUSY, SystemState.OVERLOADED


def make_resolver(states):
    return lambda n: states[n]


def test_parse_single_ref():
    node = parse_expression("r1")
    assert node == RuleRef(1)


def test_parse_ref_with_space():
    # Figure 4 writes "r 4" with a space.
    assert parse_expression("r 4") == RuleRef(4)


def test_parse_paper_expression():
    node = parse_expression("( 40% * r 4 + 30% * r1 + 30% * r3 ) & r2")
    assert isinstance(node, Combine)
    assert node.op == "&"
    assert node.right == RuleRef(2)
    assert isinstance(node.left, WeightedSum)
    weights = [w for w, _ in node.left.terms]
    assert weights == pytest.approx([0.4, 0.3, 0.3])
    assert node.references() == {1, 2, 3, 4}


def test_evaluate_weighted_sum_rounds():
    node = parse_expression("( 40% * r4 + 30% * r1 + 30% * r3 )")
    # 0.4*2 + 0.3*2 + 0.3*0 = 1.4 → rounds to busy.
    assert evaluate(node, make_resolver({4: O, 1: O, 3: F})) is B
    # 0.4*2 + 0.3*2 + 0.3*2 = 2 → overloaded.
    assert evaluate(node, make_resolver({4: O, 1: O, 3: O})) is O
    # all free → free.
    assert evaluate(node, make_resolver({4: F, 1: F, 3: F})) is F


def test_evaluate_paper_and_semantics():
    node = parse_expression("( 40% * r4 + 30% * r1 + 30% * r3 ) & r2")
    # Combination busy (1.4) & r2 busy → busy.
    assert evaluate(node, make_resolver({4: O, 1: O, 3: F, 2: B})) is B
    # Combination overloaded & r2 busy → busy (one busy, other overloaded).
    assert evaluate(node, make_resolver({4: O, 1: O, 3: O, 2: B})) is B
    # Both overloaded → overloaded.
    assert evaluate(node, make_resolver({4: O, 1: O, 3: O, 2: O})) is O
    # r2 free pulls the whole thing to free.
    assert evaluate(node, make_resolver({4: O, 1: O, 3: O, 2: F})) is F


def test_or_combinator():
    node = parse_expression("r1 | r2")
    assert evaluate(node, make_resolver({1: F, 2: O})) is O
    assert evaluate(node, make_resolver({1: F, 2: F})) is F


def test_left_associative_chain():
    node = parse_expression("r1 & r2 | r3")
    # (r1 & r2) | r3
    assert evaluate(node, make_resolver({1: O, 2: F, 3: B})) is B


def test_nested_parens():
    node = parse_expression("( 50% * ( r1 & r2 ) + 50% * r3 )")
    assert evaluate(node, make_resolver({1: O, 2: O, 3: F})) is B


def test_bare_parenthesized_ref():
    node = parse_expression("( r1 )")
    assert node == RuleRef(1)


@pytest.mark.parametrize("bad", [
    "", "r", "( r1", "r1 &", "40% r1", "40% * ", "r1 r2", "+ r1",
    "( 40% * r1 + )", "r1 @ r2",
])
def test_malformed_expressions_raise(bad):
    with pytest.raises(ExprError):
        parse_expression(bad)


# ----------------------------------------------------- property tests
_states = st.sampled_from([F, B, O])


@st.composite
def expressions(draw, max_depth=3):
    """Generate random well-formed expressions with their rule numbers."""
    refs = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4,
                         unique=True))

    def gen(depth):
        choice = draw(st.integers(0, 2 if depth < max_depth else 0))
        if choice == 0:
            return f"r{draw(st.sampled_from(refs))}"
        if choice == 1:
            op = draw(st.sampled_from(["&", "|"]))
            return f"{gen(depth + 1)} {op} {gen(depth + 1)}"
        n_terms = draw(st.integers(1, 3))
        terms = [
            f"{draw(st.integers(1, 100))}% * {gen(depth + 1)}"
            for _ in range(n_terms)
        ]
        return "( " + " + ".join(terms) + " )"

    return gen(0), refs


@given(expressions(), st.dictionaries(st.integers(1, 9), _states,
                                      min_size=9, max_size=9))
def test_generated_expressions_parse_and_evaluate(expr_refs, states):
    text, refs = expr_refs
    node = parse_expression(text)
    assert node.references() <= set(refs)
    result = evaluate(node, make_resolver(states))
    assert result in (F, B, O)


@given(st.sampled_from([F, B, O]), st.sampled_from([F, B, O]))
def test_and_or_lattice_laws(a, b):
    and_node = parse_expression("r1 & r2")
    or_node = parse_expression("r1 | r2")
    resolver = make_resolver({1: a, 2: b})
    assert evaluate(and_node, resolver) == min(a, b)
    assert evaluate(or_node, resolver) == max(a, b)


@given(expressions(),
       st.lists(st.dictionaries(st.integers(1, 9), _states,
                                min_size=9, max_size=9),
                min_size=1, max_size=6))
def test_compiled_expression_matches_tree_walk_at_both_widths(
        expr_refs, hosts):
    """``compile_node(node, scalar)`` host by host and
    ``compile_node(node, numpy)`` over all hosts at once both equal
    the reference tree walk on random ASTs."""
    node = parse_expression(expr_refs[0])
    expected = [evaluate(node, make_resolver(states)) for states in hosts]

    run = compile_node(node, scalar)
    one_by_one = [round_levels(scalar, run(lambda n: int(states[n])))
                  for states in hosts]
    assert one_by_one == expected
    column = round_levels(np, compile_node(node, np)(
        lambda n: np.array([int(states[n]) for states in hosts])))
    assert column.tolist() == expected
