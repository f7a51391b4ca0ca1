"""Migration policies: predicates and the paper's three policies."""

import pytest

from repro.core import (
    MetricPredicate,
    policy_1,
    policy_2,
    policy_3,
)


def test_predicate_operators():
    assert MetricPredicate("loadavg1", ">", 2.0).holds({"loadavg1": 2.5})
    assert not MetricPredicate("loadavg1", ">", 2.0).holds(
        {"loadavg1": 2.0}
    )
    assert MetricPredicate("comm_mbs", "<=", 5.0).holds({"comm_mbs": 5.0})
    assert MetricPredicate("loadavg1", "<", 1.0).holds({"loadavg1": 0.9})
    assert MetricPredicate("proc_count", ">=", 10).holds(
        {"proc_count": 10}
    )


def test_predicate_missing_metric_is_false():
    assert not MetricPredicate("loadavg1", ">", 0.0).holds({})


def test_predicate_validation():
    with pytest.raises(ValueError):
        MetricPredicate("loadavg1", "==", 1.0)
    with pytest.raises(ValueError):
        MetricPredicate("warp_factor", ">", 1.0)


def test_predicate_str():
    assert str(MetricPredicate("loadavg1", ">", 2.0)) == "loadavg1 > 2"


def test_policy_1_disabled():
    p = policy_1()
    assert not p.enabled
    assert p.triggers == ()


def test_policy_2_thresholds():
    p = policy_2()
    assert p.enabled
    # Paper: migrate when load > 2 or processes > 150.
    assert any(t.holds({"loadavg1": 2.1}) for t in p.triggers)
    assert any(t.holds({"proc_count": 151}) for t in p.triggers)
    assert not any(t.holds({"loadavg1": 1.9, "proc_count": 150})
                   for t in p.triggers)
    # Destination: load < 1 and processes < 100.
    ok = {"loadavg1": 0.97, "proc_count": 50}
    assert all(c.holds(ok) for c in p.dest_conditions)
    assert not all(c.holds({"loadavg1": 1.2, "proc_count": 50})
                   for c in p.dest_conditions)
    assert p.source_guards == ()


def test_policy_3_adds_comm_awareness():
    p = policy_3()
    # Same triggers as policy 2.
    assert {str(t) for t in p.triggers} == {
        str(t) for t in policy_2().triggers
    }
    # Source guard: flow ≤ 5 MB/s.
    assert all(g.holds({"comm_mbs": 4.0}) for g in p.source_guards)
    assert not all(g.holds({"comm_mbs": 6.0}) for g in p.source_guards)
    # Destination additionally requires flow ≤ 3 MB/s.
    busy_comm = {"loadavg1": 0.97, "proc_count": 10, "comm_mbs": 13.8}
    assert all(c.holds(busy_comm) for c in policy_2().dest_conditions)
    assert not all(c.holds(busy_comm) for c in p.dest_conditions)
