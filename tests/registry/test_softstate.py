"""Soft-state table: leases, ordering, expiry."""

import pytest

from repro.entity.clock import ManualClock
from repro.registry import METRIC_COLUMNS, SoftStateTable
from repro.rules import SystemState
from repro.sim import Environment
from repro.trace import use
from repro.trace.events import EV_REGISTRY_EXPIRE
from repro.trace.tracer import Tracer


def test_register_and_get():
    env = Environment()
    table = SoftStateTable(env, lease=30.0)
    rec = table.register("ws1", {"os": "SunOS"})
    assert table.get("ws1") is rec
    assert rec.static_info["os"] == "SunOS"
    assert table.matrix.n == 1


def test_registration_order_preserved():
    env = Environment()
    table = SoftStateTable(env)
    for name in ("ws3", "ws1", "ws2"):
        table.register(name, {})
    assert [r.host for r in table.records()] == ["ws3", "ws1", "ws2"]


def test_reregister_keeps_order():
    env = Environment()
    table = SoftStateTable(env)
    table.register("a", {})
    table.register("b", {})
    table.register("a", {"new": "info"})
    assert [r.host for r in table.records()] == ["a", "b"]
    assert table.get("a").static_info == {"new": "info"}


def test_update_refreshes_lease():
    env = Environment()
    table = SoftStateTable(env, lease=30.0)
    rec = table.register("ws1", {})

    def scenario(env):
        yield env.timeout(25)
        table.update("ws1", SystemState.BUSY, {"loadavg1": 1.2})
        yield env.timeout(25)

    env.process(scenario(env))
    env.run()
    # 50 s elapsed but last update was at t=25: lease current.
    assert table.effective_state(rec) is SystemState.BUSY


def test_lease_expiry_makes_unavailable():
    env = Environment()
    table = SoftStateTable(env, lease=30.0)
    rec = table.register("ws1", {})
    table.update("ws1", SystemState.FREE, {})

    def advance(env):
        yield env.timeout(31)

    env.process(advance(env))
    env.run()
    assert table.effective_state(rec) is SystemState.UNAVAILABLE
    assert list(table.fresh_rows()) == []


def test_update_implicitly_registers():
    env = Environment()
    table = SoftStateTable(env)
    table.update("ghost", SystemState.FREE, {})
    assert table.get("ghost") is not None


def test_unregister():
    env = Environment()
    table = SoftStateTable(env)
    table.register("a", {})
    table.unregister("a")
    assert table.get("a") is None
    table.unregister("a")  # idempotent


def test_free_hosts_filters_states():
    env = Environment()
    table = SoftStateTable(env, lease=100.0)
    for name, state in (("a", SystemState.FREE),
                        ("b", SystemState.BUSY),
                        ("c", SystemState.OVERLOADED),
                        ("d", SystemState.FREE)):
        table.register(name, {})
        table.update(name, state, {})
    assert [code == SystemState.FREE
            for _, code in table.fresh_rows()] == [True, False, False, True]


def test_updates_counted():
    env = Environment()
    table = SoftStateTable(env)
    table.register("a", {})
    for _ in range(3):
        table.update("a", SystemState.FREE, {})
    assert table.get("a").updates_received == 3


def test_invalid_lease():
    with pytest.raises(ValueError):
        SoftStateTable(Environment(), lease=0)


# -- records are views of the table's rows ------------------------------
def test_records_are_cached_read_only_views():
    table = SoftStateTable(ManualClock())
    for name in ("a", "b"):
        table.register(name, {})
    records = table.records()
    assert table.records() is records  # no per-call allocation
    assert table.get("b") is records[1]
    table.update("b", SystemState.BUSY, {"loadavg1": 1.5})
    # A status push neither rebuilds the list nor stales a handle.
    assert table.records() is records
    assert records[1].state is SystemState.BUSY
    assert records[1].updates_received == 1
    with pytest.raises(AttributeError):
        records[1].state = SystemState.FREE
    # The row set changing does rebuild the list, around the same
    # handles.
    table.register("c", {})
    assert [r.host for r in table.records()] == ["a", "b", "c"]
    assert table.records()[1] is records[1]


def test_view_survives_unregister_of_an_earlier_row():
    table = SoftStateTable(ManualClock())
    for i, name in enumerate(("a", "b", "c")):
        table.register(name, {"cpu_speed": float(i)})
        table.update(name, SystemState.BUSY, {"loadavg1": float(i)},
                     [{"name": name, "pid": i}] if name != "b" else None)
    a, c = table.get("a"), table.get("c")
    table.unregister("a")
    # ``c`` moved from row 2 to row 1: the view follows its host, never
    # reading the neighbour that took its old index.
    assert table.matrix.row_of("c") == 1
    assert c.host == "c" and c.metrics == {"loadavg1": 2.0}
    assert c.static_info == {"cpu_speed": 2.0}
    assert c.processes == [{"name": "c", "pid": 2}]
    assert table.get("b").processes == []
    assert table.get("c") is c
    # The unregistered host's view raises instead of reading someone.
    with pytest.raises(KeyError):
        a.state
    with pytest.raises(KeyError):
        a.metrics


def test_off_vocabulary_metrics_and_processes_round_trip():
    """A child registry's ``"hosts"`` and a process report live in the
    sparse side tables: they read back through the view and the next
    push that omits them clears them."""
    table = SoftStateTable(ManualClock())
    report = [{"name": "app", "pid": 3}]
    table.update("reg@child", SystemState.FREE,
                 {"loadavg1": 0.2, "hosts": 5.0}, report)
    rec = table.get("reg@child")
    assert rec.metrics == {"loadavg1": 0.2, "hosts": 5.0}
    assert rec.processes == report
    assert "hosts" not in METRIC_COLUMNS  # not a column
    table.update("reg@child", SystemState.FREE, {"loadavg1": 0.3})
    assert rec.metrics == {"loadavg1": 0.3}
    assert rec.processes == []


@pytest.mark.parametrize("n_stale", [1, 5])
def test_expiry_traced_once_per_lapse(n_stale):
    """One ``EV_REGISTRY_EXPIRE`` per row per lapse — whether one row
    or every row goes stale, whichever walk or record query notices,
    and again after a push has renewed the lease."""
    table = SoftStateTable(ManualClock(), lease=10.0)
    hosts = [f"ws{i}" for i in range(5)]
    for name in hosts:
        table.register(name, {})
    tracer = Tracer(clock=lambda: table.env.now)

    def expired():
        return sorted(r.host for r in tracer.records
                      if r.name == EV_REGISTRY_EXPIRE)

    def fresh():
        return [hosts[row] for row, _ in table.fresh_rows()]

    with use(tracer):
        table.env.set(8.0)
        for name in hosts[n_stale:]:
            table.update(name, SystemState.FREE, {})
        table.env.set(12.0)  # the rows not refreshed at t=8 lapse
        stale = hosts[:n_stale]
        assert fresh() == hosts[n_stale:]
        assert expired() == stale
        assert fresh() == hosts[n_stale:]
        assert table.effective_state(table.get("ws0")) is (
            SystemState.UNAVAILABLE)
        assert expired() == stale  # still one each
        # A push renews the lease; the next lapse is traced again.
        table.update("ws0", SystemState.FREE, {})
        assert table.get("ws0").expiry_traced is False
        table.env.set(30.0)
        assert fresh() == []
        # Every row is stale now: ws0 has lapsed twice, the rest once.
        assert expired() == sorted(hosts + ["ws0"])
