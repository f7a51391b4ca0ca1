"""The host-state matrix mirrors the soft-state table exactly.

Column contract tests for ``registry/hostmatrix.py`` — row alignment
with the record list through register/update/unregister, NaN semantics
for unreported metrics, static-field parsing, membership-cache
invalidation, and the mask builders' equivalence with the per-record
reference predicates (docs/decision_plane.md).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.policy import policy_3
from repro.entity.clock import ManualClock
from repro.registry.hostmatrix import (
    HostStateMatrix,
    dest_mask,
    matrix_column_engine,
    requirements_mask,
)
from repro.registry.softstate import SoftStateTable
from repro.rules import VectorRuleEvaluator, paper_ruleset
from repro.rules.states import SystemState
from repro.schema import ResourceRequirements

from ..callcount import count_calls
from . import reference


def make_table(lease=35.0):
    return SoftStateTable(ManualClock(), lease=lease)


def test_rows_follow_registration_order():
    table = make_table()
    for name in ("ws3", "ws1", "ws2"):
        table.register(name, {})
    m = table.matrix
    assert [m.host_at(i) for i in range(m.n)] == ["ws3", "ws1", "ws2"]
    assert [r.host for r in table.records()] == ["ws3", "ws1", "ws2"]
    assert m.row_of("ws1") == 1
    assert m.row_of("nope") is None


def test_update_writes_status_columns_in_place():
    table = make_table()
    table.register("ws1", {})
    table.env.set(5.0)
    table.update("ws1", SystemState.BUSY,
                 {"loadavg1": 2.5, "proc_count": 40.0})
    m = table.matrix
    row = m.row_of("ws1")
    assert m.state_codes[row] == int(SystemState.BUSY)
    assert m.last_update[row] == 5.0
    assert m.metric_column("loadavg1")[row] == 2.5
    assert m.metric_column("proc_count")[row] == 40.0
    # Unreported metrics are NaN...
    assert np.isnan(m.metric_column("comm_mbs")[row])
    # ...and a later push *replaces* the metric set, like the dict does.
    table.update("ws1", SystemState.FREE, {"comm_mbs": 1.0})
    assert np.isnan(m.metric_column("loadavg1")[row])
    assert m.metric_column("comm_mbs")[row] == 1.0


def test_unknown_metrics_are_ignored_not_stored():
    table = make_table()
    table.register("ws1", {})
    table.update("ws1", SystemState.FREE, {"hosts": 3.0, "loadavg1": 1.0})
    assert table.matrix.metric_column("loadavg1")[0] == 1.0
    with pytest.raises(KeyError):
        table.matrix.metric_column("hosts")


def test_static_columns_and_features():
    table = make_table()
    table.register("fast", {"cpu_speed": 2200.0, "features": "gpu,ib"})
    table.register("plain", {})
    m = table.matrix
    assert m.cpu_speed[m.row_of("fast")] == 2200.0
    assert np.isnan(m.cpu_speed[m.row_of("plain")])
    assert m.features_at(m.row_of("fast")) == frozenset({"gpu", "ib"})
    assert m.features_at(m.row_of("plain")) is None
    # Re-register refreshes statics.
    table.register("plain", {"cpu_speed": 900.0, "features": ""})
    assert m.cpu_speed[m.row_of("plain")] == 900.0
    assert m.features_at(m.row_of("plain")) == frozenset()


def test_unregister_compacts_and_keeps_alignment():
    table = make_table()
    for i in range(5):
        table.register(f"ws{i}", {})
        table.update(f"ws{i}", SystemState.BUSY, {"loadavg1": float(i)})
    table.unregister("ws1")
    table.unregister("ws3")
    m = table.matrix
    assert m.n == len(table.records()) == 3
    for i, record in enumerate(table.records()):
        assert m.host_at(i) == record.host
        assert m.metric_column("loadavg1")[i] == record.metrics["loadavg1"]
    assert m.row_of("ws1") is None
    assert m.row_of("ws4") == 2
    # Unregistering an unknown host is a no-op, as in the table.
    table.unregister("ghost")
    assert m.n == 3


def test_growth_past_initial_capacity():
    table = make_table()
    for i in range(100):
        table.register(f"ws{i:03d}", {"cpu_speed": float(i)})
        table.update(f"ws{i:03d}", SystemState.FREE,
                     {"loadavg1": float(i)})
    m = table.matrix
    assert m.n == 100
    assert m.cpu_speed[99] == 99.0
    assert m.metric_column("loadavg1")[0] == 0.0


def test_membership_caches_invalidate_on_row_changes_only():
    table = make_table()
    table.register("ws0", {})
    table.register("reg@child", {})
    m = table.matrix
    hosts1 = m.hosts_array
    regmask1 = m.registry_mask
    assert list(hosts1) == ["ws0", "reg@child"]
    assert list(regmask1) == [False, True]
    # A status push does not rebuild them...
    table.update("ws0", SystemState.BUSY, {"loadavg1": 1.0})
    assert m.hosts_array is hosts1
    assert m.registry_mask is regmask1
    # ...a membership change does.
    table.register("ws1", {})
    assert m.hosts_array is not hosts1
    assert list(m.hosts_array) == ["ws0", "reg@child", "ws1"]


def test_free_mask_matches_free_hosts_with_expired_leases():
    table = make_table(lease=10.0)
    for i in range(4):
        table.register(f"ws{i}", {})
        table.update(f"ws{i}", SystemState.FREE, {})
    table.env.set(5.0)
    table.update("ws1", SystemState.OVERLOADED, {})
    table.update("ws2", SystemState.FREE, {})
    table.env.set(12.0)  # ws0/ws3 leases (t=0) now expired
    expected = {r.host for r in reference.free_hosts(table)}
    mask = table.free_mask()
    got = {table.matrix.host_at(i) for i in np.flatnonzero(mask)}
    assert got == expected == {"ws2"}
    # Expiry is sticky until the next push.
    table.env.set(13.0)
    assert {table.matrix.host_at(i)
            for i in np.flatnonzero(table.free_mask())} == {"ws2"}
    assert {r.host for r in table.available()} == {"ws1", "ws2"}


def test_free_mask_traces_expiry_once_like_scalar():
    from repro.trace import use
    from repro.trace.events import EV_REGISTRY_EXPIRE
    from repro.trace.tracer import Tracer

    def expiry_events(query):
        table = make_table(lease=10.0)
        table.register("ws0", {})
        table.update("ws0", SystemState.FREE, {})
        table.env.set(20.0)
        tracer = Tracer(clock=lambda: table.env.now)
        with use(tracer):
            query(table)
            query(table)  # second query: no second expiry event
        return [r for r in tracer.records if r.name == EV_REGISTRY_EXPIRE]

    by_record = expiry_events(reference.free_hosts)
    by_mask = expiry_events(lambda t: t.free_mask())
    assert len(by_record) == len(by_mask) == 1


def test_dest_mask_matches_scalar_predicates():
    table = make_table()
    policy = policy_3()
    rows = [
        ("ok", {"loadavg1": 0.5, "proc_count": 10.0, "comm_mbs": 1.0}),
        ("busy", {"loadavg1": 3.0, "proc_count": 10.0, "comm_mbs": 1.0}),
        ("comm", {"loadavg1": 0.5, "proc_count": 10.0, "comm_mbs": 9.0}),
        ("gaps", {"loadavg1": 0.5}),  # missing metrics fail predicates
    ]
    for host, metrics in rows:
        table.register(host, {})
        table.update(host, SystemState.FREE, metrics)
    mask = dest_mask(table.matrix, policy)
    for i, record in enumerate(table.records()):
        assert mask[i] == reference.dest_ok(policy, record), record.host
    assert list(mask) == [True, False, False, False]
    # Disabled or absent policies accept every row.
    assert dest_mask(table.matrix, None).all()
    disabled = dataclasses.replace(policy_3(), enabled=False)
    assert dest_mask(table.matrix, disabled).all()


def test_requirements_mask_matches_scalar_matcher():
    table = make_table()
    cases = [
        ("full", {"cpu_speed": 2000.0, "features": "gpu,ib"},
         {"mem_avail_bytes": 4e9, "disk_avail_bytes": 1e12}),
        ("slow", {"cpu_speed": 500.0}, {"mem_avail_bytes": 4e9}),
        ("nostatics", {}, {"mem_avail_bytes": 4e9,
                           "disk_avail_bytes": 1e12}),
        ("nomem", {"cpu_speed": 2000.0}, {}),
        ("feats", {"features": "gpu"}, {"mem_avail_bytes": 4e9,
                                        "disk_avail_bytes": 1e12}),
    ]
    for host, static, metrics in cases:
        table.register(host, static)
        table.update(host, SystemState.FREE, metrics)
    req = ResourceRequirements(
        min_memory_bytes=int(1e9), min_disk_bytes=int(1e9),
        min_cpu_speed=1000.0, features=("gpu", "ib"),
    )
    mask = requirements_mask(table.matrix, req)
    for i, record in enumerate(table.records()):
        expected = reference.meets_requirements(record, req)
        assert mask[i] == expected, record.host
    assert requirements_mask(table.matrix, None).all()


def test_matrix_column_engine_drives_vector_rules():
    from repro.rules import RuleEvaluator

    table = make_table()
    # A loaded host and an idle host; the paper's Figure 4 complex rule
    # is the sole top-level rule, so it decides both.
    hosts = {
        "ws0": {"cpu_idle_pct": 44.0, "socket_count": 800.0,
                "loadavg1": 2.0, "proc_count": 400.0},
        "ws1": {"cpu_idle_pct": 90.0, "socket_count": 10.0,
                "loadavg1": 0.1, "proc_count": 20.0},
    }
    for host, metrics in hosts.items():
        table.register(host, {})
        table.update(host, SystemState.FREE, metrics)
    engine = matrix_column_engine(table.matrix)
    states = VectorRuleEvaluator(
        paper_ruleset(), engine
    ).evaluate_host_states()
    assert states.tolist() == [int(SystemState.BUSY),
                               int(SystemState.FREE)]
    # The scalar evaluator run per host is the oracle.
    for row, metrics in enumerate(hosts.values()):
        scripts = {"processorStatus.sh": metrics["cpu_idle_pct"],
                   "ntStatIpv4.sh": metrics["socket_count"],
                   "loadAvg.sh": metrics["loadavg1"],
                   "procCount.sh": metrics["proc_count"]}
        scalar = RuleEvaluator(
            paper_ruleset(), lambda script, param="": scripts[script]
        ).evaluate_host_state()
        assert states[row] == int(scalar)
    with pytest.raises(KeyError):
        engine("unknown.sh", "")


def test_matrix_rejects_duplicate_rows():
    m = HostStateMatrix()
    m.add_row("ws0", {}, 0.0)
    with pytest.raises(ValueError):
        m.add_row("ws0", {}, 1.0)


@pytest.mark.costguard
def test_call_count_of_a_rule_sweep_is_flat_in_rows():
    """The paper's rule set classifies every row of the matrix in one
    call whose cost does not grow with rows: 4096 hosts make the calls
    64 do (the guard that replaced the "≥ 10× the per-host evaluator"
    wall-clock ratio)."""
    counts = {}
    for n_rows in (64, 4096):
        rng = np.random.default_rng(2026)
        table = SoftStateTable(ManualClock(), lease=35.0)
        hosts = [f"ws{i}" for i in range(n_rows)]
        table.register_many(hosts, [{} for _ in hosts])
        table.push_many(hosts, rng.integers(0, 3, n_rows).astype(np.int8), {
            "cpu_idle_pct": rng.uniform(0.0, 100.0, n_rows),
            "socket_count": rng.uniform(0.0, 1200.0, n_rows),
            "loadavg1": rng.uniform(0.0, 4.0, n_rows),
            "proc_count": rng.uniform(0.0, 300.0, n_rows),
        })
        evaluator = VectorRuleEvaluator(
            paper_ruleset(), matrix_column_engine(table.matrix))
        states = evaluator.evaluate_host_states()
        assert len(states) == n_rows
        counts[n_rows] = count_calls(evaluator.evaluate_host_states)
    assert counts[4096] == counts[64], counts
