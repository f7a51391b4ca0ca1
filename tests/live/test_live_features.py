"""Live-mode features gained from the entity-core split: the full rule
engine (simple + complex rules, sustain, per-state intervals),
hierarchical registries over real TCP, and transport retry/addressing.
"""

import builtins
import os
import time

import pytest

from repro.core import MetricPredicate, MigrationPolicy
from repro.live import (
    LiveEndpoint,
    LiveNode,
    LiveRegistry,
    default_ruleset,
    sqrt_sum_expected,
    sqrt_sum_state,
)
from repro.live import proc_sensors
from repro.monitor.scripts import SnapshotScriptEngine
from repro.protocol import Ack
from repro.rules import SystemState
from repro.rules.model import ComplexRule, RuleSet, SimpleRule


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ------------------------------------------------- transport addressing
def test_parse_strips_registry_label_prefix():
    assert LiveEndpoint._parse("registry@127.0.0.1:5001") == \
        ("127.0.0.1", 5001)
    assert LiveEndpoint._parse("127.0.0.1:5001") == ("127.0.0.1", 5001)


def test_send_routes_labelled_address():
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        assert a.send_message(f"registry@{b.address}", Ack(host="a"),
                              timestamp=0.0)
        item = b.recv(timeout=5.0)
        assert item is not None and item[0] == "msg"
    finally:
        a.close()
        b.close()


def test_send_to_unroutable_name_returns_false():
    a = LiveEndpoint("a")
    try:
        assert not a.send_message("ws1", Ack(host="a"), timestamp=0.0)
    finally:
        a.close()


# ---------------------------------------------------- transport retry
def test_connect_retries_back_off_exponentially():
    a = LiveEndpoint("a", connect_retries=3, retry_backoff=0.05)
    try:
        t0 = time.monotonic()
        assert not a.send_message("127.0.0.1:1", Ack(host="a"),
                                  timestamp=0.0)
        # 3 retries → backoffs of 0.05 + 0.1 + 0.2 s between attempts.
        assert time.monotonic() - t0 >= 0.35
    finally:
        a.close()


def test_zero_retries_fails_fast():
    a = LiveEndpoint("a", connect_retries=0)
    try:
        t0 = time.monotonic()
        assert not a.send_message("127.0.0.1:1", Ack(host="a"),
                                  timestamp=0.0)
        assert time.monotonic() - t0 < 1.0
    finally:
        a.close()


def test_transport_config_validation():
    with pytest.raises(ValueError):
        LiveEndpoint("a", connect_timeout=0.0)
    with pytest.raises(ValueError):
        LiveEndpoint("a", connect_retries=-1)


# ------------------------------------------------ rule engine in live mode
def test_default_ruleset_matches_legacy_thresholds():
    node = LiveNode("n1", base_load=0.1, capacity_threshold=1.5)
    try:
        assert node._status_update().state is SystemState.FREE
        node.inject_load(1.0)  # load 1.1 > 0.9 → busy
        assert node._status_update().state is SystemState.BUSY
        node.inject_load(2.0)  # load 2.1 > 1.5 → overloaded
        assert node._status_update().state is SystemState.OVERLOADED
    finally:
        node.stop()


def test_live_sustain_defers_overload_report():
    node = LiveNode("n1", sustain=3, capacity_threshold=1.5)
    try:
        node.inject_load(3.0)
        assert node._status_update().state is SystemState.BUSY
        assert node._status_update().state is SystemState.BUSY
        assert node._status_update().state is SystemState.OVERLOADED
    finally:
        node.stop()


def test_live_per_state_monitoring_interval():
    node = LiveNode(
        "n1", interval=5.0,
        intervals_by_state={SystemState.OVERLOADED: 0.25},
        capacity_threshold=1.5,
    )
    try:
        assert node.monitor.current_interval() == 5.0
        node.inject_load(3.0)
        node._status_update()
        assert node.reported_state is SystemState.OVERLOADED
        assert node.monitor.current_interval() == 0.25
    finally:
        node.stop()


def complex_ruleset(capacity_threshold):
    """Figure 4 style: load and occupancy combined by an expression."""
    rules = RuleSet()
    rules.add(SimpleRule(number=1, name="load", script="loadAvg.sh",
                         operator=">", busy=0.9,
                         overloaded=capacity_threshold))
    rules.add(SimpleRule(number=2, name="occupancy",
                         script="procCount.sh", operator=">",
                         busy=0.5, overloaded=0.5))
    rules.add(ComplexRule(number=3, name="combined",
                          expression="( 60% * r1 + 40% * r2 )",
                          rule_numbers=(1, 2)))
    return rules


def test_live_node_accepts_an_empty_ruleset():
    """"No rules" can be asked for: an empty ``RuleSet`` (falsy) is
    not swapped for the default one."""
    rules = RuleSet()
    node = LiveNode("n1", ruleset=rules, capacity_threshold=1.5)
    try:
        assert node.monitor.ruleset is rules
        node.inject_load(3.0)  # the default set would say OVERLOADED
        assert node._status_update().state is SystemState.FREE
    finally:
        node.stop()


def test_live_complex_rule_classification():
    node = LiveNode("n1", ruleset=complex_ruleset(1.5), root_rule=3)
    try:
        assert node._status_update().state is SystemState.FREE
        # One task → occupancy overloaded, load busy → rounds to busy.
        node.submit("sqrt_sum", sqrt_sum_state(n=10**12, chunk=10**5))
        assert node._status_update().state is SystemState.BUSY
        # Plus injected load → both overloaded.
        node.inject_load(3.0)
        assert node._status_update().state is SystemState.OVERLOADED
    finally:
        node.stop()


# --------------------------------- the acceptance scenario, end to end
def test_live_complex_rule_policy_with_hierarchical_escalation():
    """A live node classifies through a complex rule; its registry has
    no local destination, escalates the CandidateRequest to the parent
    registry over real sockets, and the task migrates to a node of the
    *other* sub-registry — §4 + §3.2 hierarchy, live."""
    policy = MigrationPolicy(
        name="live",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    top = LiveRegistry(policy=policy, lease=10.0, command_cooldown=0.5,
                       name="top")
    child = LiveRegistry(policy=policy, lease=10.0, command_cooldown=0.5,
                         parent_address=top.address)
    source = LiveNode("source", registry_address=child.address,
                      interval=0.1, ruleset=complex_ruleset(1.5),
                      root_rule=3, sustain=2)
    remote = LiveNode("remote", registry_address=top.address,
                      interval=0.1)
    try:
        assert "@" in child.label
        n = 20_000_000
        source.submit("sqrt_sum", sqrt_sum_state(n=n, chunk=500_000),
                      est_seconds=120.0)
        source.inject_load(3.0)
        assert wait_for(lambda: remote.migrations_in == 1, timeout=30.0)
        assert wait_for(lambda: len(remote.completed) == 1, timeout=60.0)
        resumed = remote.completed[0]
        assert resumed.result["acc"] == pytest.approx(
            sqrt_sum_expected(n)
        )
        decision = next(d for d in child.decisions if d.dest)
        assert decision.escalated
        assert decision.dest == remote.address
        # The sustain warm-up really deferred the first report.
        assert source.monitor.cycles >= 2
    finally:
        source.stop()
        remote.stop()
        child.stop()
        top.stop()


# --------------------------------------------- /proc-less fallbacks
@pytest.fixture
def no_proc(monkeypatch):
    """Make every /proc read fail, as on a non-Linux host."""
    real_open = builtins.open
    real_listdir = os.listdir

    def fake_open(path, *args, **kwargs):
        if str(path).startswith("/proc"):
            raise OSError("no /proc here")
        return real_open(path, *args, **kwargs)

    def fake_listdir(path="."):
        if str(path).startswith("/proc"):
            raise OSError("no /proc here")
        return real_listdir(path)

    monkeypatch.setattr(builtins, "open", fake_open)
    monkeypatch.setattr(os, "listdir", fake_listdir)
    return monkeypatch


def test_load_averages_fall_back_to_getloadavg(no_proc):
    loads = proc_sensors.load_averages()
    assert loads is not None and len(loads) == 3  # os.getloadavg


def test_load_averages_none_when_everything_fails(no_proc):
    def boom():
        raise OSError("unsupported")

    no_proc.setattr(os, "getloadavg", boom)
    assert proc_sensors.load_averages() is None


def test_sensors_degrade_to_none_without_proc(no_proc):
    assert proc_sensors.process_count() is None
    assert proc_sensors.memory_info() is None
    assert proc_sensors.net_bytes() is None
    assert proc_sensors.CpuIdleSampler().sample() is None
    assert proc_sensors.NetRateSampler().sample() is None


def test_snapshot_without_proc_is_partial_not_crashing(no_proc):
    snap = proc_sensors.snapshot(proc_sensors.CpuIdleSampler(),
                                 proc_sensors.NetRateSampler())
    assert "cpu_idle_pct" not in snap
    assert "proc_count" not in snap


def test_node_still_classifies_without_proc(no_proc):
    """The demo load drives classification even when every genuine
    sensor is unavailable."""
    node = LiveNode("n1", capacity_threshold=1.5)
    try:
        node.inject_load(3.0)
        assert node._status_update().state is SystemState.OVERLOADED
    finally:
        node.stop()


def test_snapshot_engine_missing_metric_raises_keyerror():
    engine = SnapshotScriptEngine(lambda: {"loadavg1": 0.5})
    engine.refresh()
    assert engine("loadAvg.sh", "1") == 0.5
    with pytest.raises(KeyError):
        engine("memInfo.sh")
    with pytest.raises(KeyError):
        engine("noSuchScript.sh")


def test_default_ruleset_thresholds_validate():
    rules = default_ruleset(1.5)
    rule = rules.get(1)
    assert rule.busy == 0.9 and rule.overloaded == 1.5
