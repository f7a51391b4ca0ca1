"""The monitoring vocabulary is written once and every layer reads it.

``repro.rules.vocabulary`` holds the metric tuple with its domains, the
script → metric map and the operator table.  These tests are what
replaced the V902 lint pass: (a) every producer carries exactly the
metric tuple, (b) every engine answers one ``(script, param)`` with the
same number, (c) every comparison path agrees on one operator table,
and (d) nobody under ``src/repro`` restates a table.
"""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core.policy import MetricPredicate, MigrationPolicy
from repro.entity.clock import ManualClock
from repro.findings import try_build
from repro.live import proc_sensors
from repro.monitor import SensorSuite, SimScriptEngine
from repro.monitor.hub import MonitorHub
from repro.monitor.scripts import SnapshotScriptEngine
from repro.protocol.transport import EndpointRegistry
from repro.registry.core import RegistryCore
from repro.registry.hostmatrix import METRIC_COLUMNS, matrix_column_engine
from repro.registry.softstate import SoftStateTable
from repro.rules import (
    RuleEvaluator,
    RuleSet,
    SimpleRule,
    SystemState,
    VectorRuleEvaluator,
    classify,
    classify_column,
)
from repro.rules.vocabulary import (
    METRIC_DOMAINS,
    METRICS,
    OPERATORS,
    SCRIPT_PARAMS,
    script_metric,
)

SCRIPT_CALLS = [
    (script, param)
    for script, params in SCRIPT_PARAMS.items() for param in params
]


# ------------------------------------------------------------ (a) closure
@pytest.mark.parametrize("script,param", SCRIPT_CALLS)
def test_every_script_reads_a_known_metric(script, param):
    assert script_metric(script, param) in METRICS
    # Blanks and case do not matter to a parameter.
    assert script_metric(script, f" {param.swapcase()} ") == \
        script_metric(script, param)


def test_unknown_script_is_a_keyerror_and_bad_parameter_a_valueerror():
    with pytest.raises(KeyError):
        script_metric("quantum.sh")
    with pytest.raises(ValueError):
        script_metric("loadAvg.sh", "7")
    with pytest.raises(ValueError):
        script_metric("ntStatIpv4.sh", "TIME_WAIT")


def test_every_producer_carries_exactly_the_metric_tuple():
    assert METRICS == tuple(sorted(METRIC_DOMAINS))
    cluster = Cluster(n_hosts=2, seed=0)
    cluster.add_analytic_host("an0", mean_load=0.1, period=2.0)
    cluster.run(until=20)
    assert set(SensorSuite(cluster["ws1"]).sample()) == set(METRICS)
    row = np.array([cluster.plane.arrays.row_of("an0")])
    assert set(cluster.plane.analytic_sensor_columns(row)) == set(METRICS)
    assert METRIC_COLUMNS == METRICS
    table = SoftStateTable(ManualClock())
    table.register("h", {})
    for metric in METRICS:
        assert table.matrix.metric_column(metric).shape == (1,)
    live = proc_sensors.snapshot(proc_sensors.CpuIdleSampler(),
                                 proc_sensors.NetRateSampler())
    assert set(live) <= set(METRICS)


# ------------------------------------------------------- (b) differential
@pytest.fixture(scope="module")
def three_engines():
    """One host's reading — a distinct value per metric, so reading the
    wrong column cannot go unnoticed — behind the scalar engine, the
    registry's column engine and the hub's column engine."""
    snapshot = {m: float(i + 1) for i, m in enumerate(METRICS)}
    columns = {m: np.array([v]) for m, v in snapshot.items()}
    scalar = SnapshotScriptEngine(lambda: snapshot)
    table = SoftStateTable(ManualClock())
    table.register("an0", {})
    table.push_many(["an0"], np.array([0], dtype=np.int8), columns)
    cluster = Cluster(n_hosts=2, seed=0)
    cluster.add_analytic_host("an0", mean_load=0.1, period=2.0)
    hub = MonitorHub(cluster.plane, ["an0"], endpoint_host=cluster["ws1"],
                     directory=EndpointRegistry(),
                     registry_address="registry", table=table)
    hub._cols = columns
    return snapshot, scalar, matrix_column_engine(table.matrix), \
        hub._column_engine


@pytest.mark.parametrize("script,param", SCRIPT_CALLS)
def test_every_engine_reads_the_same_number(three_engines, script, param):
    snapshot, scalar, matrix, hub = three_engines
    expected = snapshot[script_metric(script, param)]
    assert scalar(script, param) == expected
    assert matrix(script, param)[0] == expected
    assert hub(script, param)[0] == expected


@pytest.mark.parametrize("script,param", SCRIPT_CALLS)
def test_sim_engine_reads_its_own_sampled_snapshot(script, param):
    cluster = Cluster(n_hosts=2, seed=0)
    engine = SimScriptEngine(cluster["ws1"])
    cluster.run(until=20)
    snapshot = engine.refresh()
    assert engine(script, param) == snapshot[script_metric(script, param)]


def test_only_the_sim_engine_answers_other_socket_states(three_engines):
    """A snapshot holds the ESTABLISHED count only: the sim engine
    counts the other states live, everyone else refuses — nobody
    answers ``TIME_WAIT`` with the ESTABLISHED count."""
    cluster = Cluster(n_hosts=2, seed=0, cpu_per_byte=0.0)
    host = cluster["ws1"]
    engine = SimScriptEngine(host)
    cluster.network.open_stream("ws1", "ws2")
    engine.refresh()
    established = engine("ntStatIpv4.sh", "ESTABLISHED")
    assert engine("ntStatIpv4.sh", "TIME_WAIT") == \
        SensorSuite(host).socket_count("TIME_WAIT") == 1.0
    assert established == engine.snapshot["socket_count"] > 1.0
    _, scalar, matrix, hub = three_engines
    for refuses in (scalar, matrix, hub):
        with pytest.raises(ValueError):
            refuses("ntStatIpv4.sh", "TIME_WAIT")


def test_bad_load_window_is_one_error_through_both_evaluators(
        three_engines):
    ruleset = RuleSet()
    ruleset.add(SimpleRule(number=1, name="load7", script="loadAvg.sh",
                           operator=">", busy=1.0, overloaded=2.0,
                           param="7"))
    _, scalar, matrix, hub = three_engines
    with pytest.raises(ValueError, match="illegal parameter '7'"):
        RuleEvaluator(ruleset, scalar).evaluate_host_state()
    for columns in (matrix, hub):
        with pytest.raises(ValueError, match="illegal parameter '7'"):
            VectorRuleEvaluator(ruleset, columns).evaluate_host_states()


# ------------------------------------------------- (c) one operator table
@given(
    op=st.sampled_from(sorted(OPERATORS)),
    value=st.one_of(st.none(), st.just(math.nan),
                    st.floats(-1e6, 1e6), st.integers(-3, 3).map(float)),
    a=st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
    b=st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
)
@settings(max_examples=300, deadline=None)
def test_every_comparison_path_agrees(op, value, a, b):
    """``classify``, ``classify_column``, ``MetricPredicate.holds`` and
    the registry's destination pick over one reading; ``None`` is an
    unreported metric, which the matrix stores as NaN and every path
    treats as *false*."""
    busy, over = (max(a, b), min(a, b)) if op.startswith("<") \
        else (min(a, b), max(a, b))
    number = math.nan if value is None else value
    state = classify(number, op, busy, over)
    assert classify_column(np.array([number]), op, busy, over)[0] == state

    metric = "loadavg1"
    reading = {} if value is None else {metric: value}
    table = SoftStateTable(ManualClock())
    table.register("h", {})
    table.update("h", SystemState.FREE, reading)
    for threshold, reached in ((busy, state >= SystemState.BUSY),
                               (over, state == SystemState.OVERLOADED)):
        pred = MetricPredicate(metric, op, threshold)
        assert pred.holds(reading) == reached
        policy, found = try_build(
            lambda: MigrationPolicy(name="p", dest_conditions=(pred,)))
        if policy is None:
            # No load average satisfies it: refused, never masked.
            assert [d.code for d in found] == ["P102"]
            continue
        core = RegistryCore(table.env, "registry", policy=policy)
        core.table = table
        assert core._pick_destinations(1, (), None, True) == (
            ["h"] if reached else [])


# ----------------------------------------------- (d) nobody restates it
def test_no_module_restates_a_vocabulary_table():
    """What replaced V902: under ``src/repro`` only the vocabulary
    module may hold a dict literal keyed by script names or by the
    comparison operators."""
    import repro

    root = os.path.dirname(repro.__file__)
    offenders = []
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path.endswith(
                    os.path.join("rules", "vocabulary.py")):
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Dict):
                    continue
                keys = {k.value for k in node.keys
                        if isinstance(k, ast.Constant)
                        and isinstance(k.value, str)}
                if (sum(k.endswith(".sh") for k in keys) >= 3
                        or keys >= set(OPERATORS)):
                    offenders.append(f"{path}:{node.lineno}")
    assert offenders == []
