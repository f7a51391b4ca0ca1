"""Soft-state table: leases, ordering, expiry."""

import pytest

from repro.registry import SoftStateTable
from repro.rules import SystemState
from repro.sim import Environment


def test_register_and_get():
    env = Environment()
    table = SoftStateTable(env, lease=30.0)
    rec = table.register("ws1", {"os": "SunOS"})
    assert table.get("ws1") is rec
    assert rec.static_info["os"] == "SunOS"
    assert "ws1" in table and len(table) == 1


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
    assert table.available() == []
    assert not table.free_mask().any()


def test_update_implicitly_registers():
    env = Environment()
    table = SoftStateTable(env)
    table.update("ghost", SystemState.FREE, {})
    assert "ghost" in table


def test_unregister():
    env = Environment()
    table = SoftStateTable(env)
    table.register("a", {})
    table.unregister("a")
    assert "a" not in table
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
    assert list(table.free_mask()) == [True, False, False, True]


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
