"""The monitor entity: cycles, state classification, sustain, push."""

import pytest

from repro.cluster import Cluster, CpuHog
from repro.core import MetricPredicate, MigrationPolicy
from repro.monitor import Monitor
from repro.protocol import EndpointRegistry, Endpoint, Register, StatusUpdate
from repro.monitor.core import MonitorCore
from repro.rules import RuleSet, SimpleRule, SystemState


def deploy(cluster, host_name="ws1", registry_host="ws2", **kw):
    directory = EndpointRegistry()
    sink = Endpoint(cluster[registry_host], directory, name="registry")
    monitor = Monitor(cluster[host_name], directory,
                      registry_address=sink.address, **kw)
    return monitor, sink


def drain(cluster, sink, until):
    """Run and collect everything the sink received."""
    inbox = []

    def pump(env):
        while True:
            item = yield sink.recv()
            inbox.append(item)

    cluster.env.process(pump(cluster.env))
    cluster.run(until=until)
    return inbox


def test_registers_then_pushes_updates():
    cluster = Cluster(n_hosts=2, seed=0)
    monitor, sink = deploy(cluster, interval=10.0)
    inbox = drain(cluster, sink, until=61)
    kinds = [type(m).__name__ for m, _, _ in inbox]
    assert kinds[0] == "Register"
    assert kinds.count("StatusUpdate") >= 5
    reg = inbox[0][0]
    assert isinstance(reg, Register)
    assert reg.static_info["hostname"] == "ws1"


def test_updates_carry_metrics():
    cluster = Cluster(n_hosts=2, seed=0)
    monitor, sink = deploy(cluster, interval=10.0)
    inbox = drain(cluster, sink, until=35)
    update = next(m for m, _, _ in inbox if isinstance(m, StatusUpdate))
    assert "loadavg1" in update.metrics
    assert "comm_mbs" in update.metrics
    assert update.state is SystemState.FREE


def test_policy_trigger_marks_overloaded_after_sustain():
    cluster = Cluster(n_hosts=2, seed=0)
    CpuHog(cluster["ws1"], count=4)
    policy = MigrationPolicy(
        name="t", triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    monitor, sink = deploy(cluster, policy=policy, interval=10.0,
                           sustain=3)
    inbox = drain(cluster, sink, until=200)
    states = [m.state for m, _, _ in inbox
              if isinstance(m, StatusUpdate)]
    assert SystemState.OVERLOADED in states
    # Sustain: the first overloaded evaluations are reported as busy.
    first_over = states.index(SystemState.OVERLOADED)
    assert SystemState.BUSY in states[:first_over]


def test_source_guard_demotes_to_busy():
    cluster = Cluster(n_hosts=2, seed=0)
    CpuHog(cluster["ws1"], count=4)
    policy = MigrationPolicy(
        name="g",
        triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        source_guards=(MetricPredicate("proc_count", ">", 1000.0),),
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    monitor, sink = deploy(cluster, policy=policy, interval=10.0,
                           sustain=1)
    inbox = drain(cluster, sink, until=300)
    states = {m.state for m, _, _ in inbox if isinstance(m, StatusUpdate)}
    assert SystemState.OVERLOADED not in states
    assert SystemState.BUSY in states


def test_sustain_suppresses_short_spikes():
    """A load burst shorter than the sustain window must never be
    reported as overloaded — the paper's fault-migration avoidance."""
    cluster = Cluster(n_hosts=2, seed=0)
    policy = MigrationPolicy(
        name="t", triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    monitor, sink = deploy(cluster, policy=policy, interval=10.0,
                           sustain=5)

    def spike(env):
        yield env.timeout(50)
        hog = CpuHog(cluster["ws1"], count=5, name="spike")
        yield env.timeout(30)  # shorter than sustain * interval
        hog.stop()

    cluster.env.process(spike(cluster.env))
    inbox = drain(cluster, sink, until=400)
    states = [m.state for m, _, _ in inbox if isinstance(m, StatusUpdate)]
    assert SystemState.OVERLOADED not in states


def test_disabled_policy_ignores_triggers():
    cluster = Cluster(n_hosts=2, seed=0)
    CpuHog(cluster["ws1"], count=6)
    policy = MigrationPolicy(
        name="off", enabled=False,
        triggers=(MetricPredicate("loadavg1", ">", 2.0),),
    )
    monitor, sink = deploy(cluster, policy=policy, interval=10.0,
                           sustain=1)
    inbox = drain(cluster, sink, until=200)
    states = {m.state for m, _, _ in inbox if isinstance(m, StatusUpdate)}
    assert states == {SystemState.FREE}


def test_per_state_monitoring_frequency():
    cluster = Cluster(n_hosts=2, seed=0)
    CpuHog(cluster["ws1"], count=4)
    policy = MigrationPolicy(
        name="t", triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    monitor, sink = deploy(
        cluster, policy=policy, interval=20.0, sustain=1,
        intervals_by_state={SystemState.OVERLOADED: 5.0},
    )
    inbox = drain(cluster, sink, until=400)
    times = [ts for m, _, ts in inbox if isinstance(m, StatusUpdate)]
    gaps = [b - a for a, b in zip(times, times[1:])]
    # Once overloaded, the monitor samples every ~5 s instead of 20 s.
    assert min(gaps) < 7.0
    assert max(gaps) > 15.0


def test_monitor_cycle_costs_cpu():
    cluster = Cluster(n_hosts=2, seed=0)
    monitor, sink = deploy(cluster, interval=10.0, cycle_cost=0.5)
    cluster.run(until=200)
    # ~20 cycles × 0.5 CPU-seconds.
    assert cluster["ws1"].cpu.busy_time() == pytest.approx(10.0, rel=0.2)


def test_stop_sends_unregister():
    from repro.protocol import Unregister

    cluster = Cluster(n_hosts=2, seed=0)
    monitor, sink = deploy(cluster, interval=10.0)
    inbox = []

    def pump(env):
        while True:
            item = yield sink.recv()
            inbox.append(item)

    cluster.env.process(pump(cluster.env))
    cluster.run(until=30)
    monitor.stop()
    cluster.run(until=60)
    assert any(isinstance(m, Unregister) for m, _, _ in inbox)


def test_validation():
    cluster = Cluster(n_hosts=2, seed=0)
    directory = EndpointRegistry()
    sink = Endpoint(cluster["ws2"], directory, name="registry")
    with pytest.raises(ValueError):
        Monitor(cluster["ws1"], directory, sink.address, interval=0)
    with pytest.raises(ValueError):
        Monitor(cluster["ws1"], directory, sink.address, sustain=0)


def test_empty_ruleset_is_kept_and_later_rules_reach_the_core():
    """An empty ``RuleSet`` is falsy (it has ``__len__``) but it is the
    caller's set: rules added after construction must classify."""
    rules = RuleSet()
    core = MonitorCore(clock=None, host_name="h", registry_address="r",
                       script_engine=lambda script, param="": 9.0,
                       ruleset=rules, sustain=1)
    assert core.ruleset is rules
    assert core.classify({}) is SystemState.FREE
    rules.add(SimpleRule(number=1, name="load", script="loadAvg.sh",
                         operator=">", busy=1.0, overloaded=2.0))
    assert core.classify({}) is SystemState.OVERLOADED
