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
from ..catalogued import assert_catalogued
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


def test_a_column_view_outlives_growth_and_compaction():
    """The columns are ``array`` buffers under numpy views.  Growth
    replaces the buffers, so a view taken before it stays readable but
    no longer sees new writes; compaction moves rows in place, under
    the view.  Neither raises
    ``BufferError``, which an in-place resize of a viewed buffer
    would."""
    table = make_table()
    for i in range(16):
        table.register(f"ws{i}", {})
    m = table.matrix
    loads = m.metric_column("loadavg1")
    codes = m.state_codes
    table.update("ws0", SystemState.BUSY, {"loadavg1": 1.5})
    assert loads[0] == 1.5 and codes[0] == int(SystemState.BUSY)
    table.register("ws16", {})  # past the first capacity
    table.update("ws0", SystemState.OVERLOADED, {"loadavg1": 2.5})
    assert codes.tolist() == [int(SystemState.BUSY)] + [0] * 15
    assert loads[0] == 1.5
    assert m.metric_column("loadavg1")[0] == 2.5
    fresh = m.metric_column("loadavg1")
    table.unregister("ws0")
    assert fresh.shape == (17,) and np.isnan(fresh[0])
    for i in range(17, 80):  # grows again with views alive
        table.register(f"ws{i}", {})
    assert m.n == 79 and np.isnan(fresh).all()
    assert m.state_codes.tolist() == [0] * 79


def test_scalar_and_batch_pushes_agree_after_growth():
    hosts = [f"ws{i}" for i in range(40)]
    codes = np.array([i % 3 for i in range(40)], dtype=np.int8)
    loads = np.linspace(0.0, 3.9, 40)
    tables = []
    for batch in (False, True):
        table = make_table()
        table.register_many(hosts[:10], [{}] * 10)
        table.register_many(hosts[10:], [{}] * 30)
        table.env.set(4.0)
        if batch:
            table.push_many(hosts, codes, {"loadavg1": loads})
        else:
            for host, code, load in zip(hosts, codes.tolist(),
                                        loads.tolist()):
                table.update(host, SystemState(code), {"loadavg1": load})
        tables.append(table.matrix)
    scalar, batch = tables
    for name in ("state_codes", "last_update", "updates_received",
                 "expiry_traced", "cpu_speed"):
        np.testing.assert_array_equal(getattr(scalar, name),
                                      getattr(batch, name), name)
    for name in ("loadavg1", "loadavg5"):
        np.testing.assert_array_equal(scalar.metric_column(name),
                                      batch.metric_column(name), name)
    assert [r.metrics for r in scalar.views()] == [
        r.metrics for r in batch.views()]


@pytest.mark.parametrize("value", [
    7, -3, 2**53 + 1, 10**300, True, -0.0, float("inf"), float("nan"),
    np.float64(0.1), np.float32(0.1), np.int64(2**62 + 1), None,
], ids=repr)
def test_a_metric_value_stores_as_a_float64_column_stored_it(value):
    table = make_table()
    table.register("ws0", {})
    table.update("ws0", SystemState.FREE, {"loadavg1": value})
    ref = np.full(1, np.nan)
    if value is not None:  # an unreported metric stays NaN
        ref[0] = value
    stored = table.matrix.metric_column("loadavg1")[:1]
    assert stored.tobytes() == ref.tobytes()
    assert table.get("ws0").metrics == (
        {} if np.isnan(ref[0]) else {"loadavg1": ref[0].item()})
    with pytest.raises(OverflowError):
        table.update("ws0", SystemState.FREE, {"loadavg1": 10**400})
    with pytest.raises(OverflowError):
        ref[0] = 10**400


def test_a_record_reads_python_scalars():
    table = make_table()
    table.register("ws0", {"cpu_speed": 2})
    table.env.set(2.5)
    table.update("ws0", SystemState.BUSY, {"loadavg1": 1})
    rec = table.get("ws0")
    assert type(rec.state) is SystemState and rec.state is SystemState.BUSY
    assert type(rec.updates_received) is int and rec.updates_received == 1
    assert type(rec.expiry_traced) is bool and rec.expiry_traced is False
    assert type(rec.last_update) is float and rec.last_update == 2.5
    assert type(rec.metrics["loadavg1"]) is float
    table.env.set(100.0)
    assert table.effective_state(rec) is SystemState.UNAVAILABLE
    assert rec.expiry_traced is True


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
        assert_catalogued(tracer.records)
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


def test_row_handles_are_built_on_first_read():
    """``add_rows`` builds no :class:`HostRecord`; ``view`` builds the
    handles up to its row, ``views`` the rest, each once, and a removal
    outside the built ones leaves them aligned."""
    m = HostStateMatrix()
    m.add_rows([f"h{i}" for i in range(6)], [{} for _ in range(6)], 0.0)
    assert m._views == []
    first = m.view("h1")
    assert len(m._views) == 2
    m.remove("h4")  # a row no handle covers yet
    views = m.views()
    assert views is m.views() and views[1] is first
    assert [v.host for v in views] == ["h0", "h1", "h2", "h3", "h5"]
    m.remove("h0")
    assert [v.host for v in m.views()] == ["h1", "h2", "h3", "h5"]
    assert m.view("h5") is views[-1] and m.view("h0") is None


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
