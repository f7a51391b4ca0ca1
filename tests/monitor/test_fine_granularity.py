"""Fine-granularity state lattices (paper §4: 'a series of numbers')."""

import pytest

from repro.cluster import Cluster
from repro.monitor import Monitor
from repro.protocol import Endpoint, EndpointRegistry
from repro.rules import (
    ComplexRule,
    RuleEvaluator,
    RuleSet,
    SimpleRule,
    SystemState,
    parse_expression,
)

from ..rules.reference import evaluate


def test_monitor_accepts_n_levels():
    cluster = Cluster(n_hosts=2, seed=0)
    directory = EndpointRegistry()
    sink = Endpoint(cluster["ws2"], directory, name="registry")
    monitor = Monitor(cluster["ws1"], directory, sink.address,
                      n_levels=9)
    assert monitor.evaluator.n_levels == 9
    with pytest.raises(ValueError):
        Monitor(cluster["ws1"], directory, sink.address, n_levels=1)


def test_finer_lattice_changes_weighted_sum_rounding():
    """With more levels, a weighted combination lands in intermediate
    severities instead of snapping to busy/overloaded."""
    node = parse_expression("( 50% * r1 + 50% * r2 )")
    states = {1: SystemState.OVERLOADED, 2: SystemState.FREE}
    # level = 0.5 * 2 + 0.5 * 0 = 1.0
    three = evaluate(node, lambda n: states[n], n_levels=3)
    nine = evaluate(node, lambda n: states[n], n_levels=9)
    assert three is SystemState.BUSY
    # Level 1 of 9 maps into the lowest third → free.
    assert nine is SystemState.FREE


def test_evaluator_threads_n_levels_to_complex_rules():
    rs = RuleSet()
    rs.add(SimpleRule(number=1, name="a", script="a.sh", operator=">",
                      busy=1, overloaded=2))
    rs.add(SimpleRule(number=2, name="b", script="b.sh", operator=">",
                      busy=1, overloaded=2))
    rs.add(ComplexRule(number=3, name="c",
                       expression="( 50% * r1 + 50% * r2 )",
                       rule_numbers=(1, 2)))
    values = {"a.sh": 5.0, "b.sh": 0.0}  # r1 overloaded, r2 free

    def engine(script, param):
        return values[script]

    coarse = RuleEvaluator(rs, engine, n_levels=3)
    fine = RuleEvaluator(rs, engine, n_levels=9)
    assert coarse.evaluate_rule(3) is SystemState.BUSY
    assert fine.evaluate_rule(3) is SystemState.FREE
