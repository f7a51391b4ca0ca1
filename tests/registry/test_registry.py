"""Registry/scheduler: decision flow, policies, hierarchy."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core import MetricPredicate, MigrationPolicy, policy_2
from repro.entity.clock import ManualClock
from repro.entity.outbox import Query, Send
from repro.monitor import ProcessInfo
from repro.protocol import (
    CandidateReply,
    CandidateRequest,
    Endpoint,
    EndpointRegistry,
    MigrateCommand,
    Register,
    StatusUpdate,
)
from repro.registry import RegistryScheduler
from repro.registry.core import MAX_HOPS, RegistryCore
from repro.rules import SystemState


def proc_info(pid=101, eta=1000.0):
    return ProcessInfo(pid=pid, name="app", start_time=0.0,
                       est_completion=eta).as_dict()


def deploy(cluster, registry_host="ws1", **kw):
    directory = EndpointRegistry()
    registry = RegistryScheduler(cluster[registry_host], directory, **kw)
    return directory, registry


def feed(cluster, directory, registry, updates, commander_host="ws1"):
    """Send updates from a fake monitor; capture commander traffic."""
    fake = Endpoint(cluster[commander_host], directory, name="monitor")
    commands = []
    # A fake commander endpoint that records what arrives.
    commander = Endpoint(cluster[commander_host], directory,
                         name="commander")

    def pump(env):
        while True:
            msg, _, _ = yield commander.recv()
            commands.append((env.now, msg))

    cluster.env.process(pump(cluster.env))

    def sender(env):
        for delay, msg in updates:
            yield env.timeout(delay)
            fake.send_and_forget(registry.address, msg)

    cluster.env.process(sender(cluster.env))
    return commands


def test_register_and_update_populate_table():
    cluster = Cluster(n_hosts=2, seed=0)
    directory, registry = deploy(cluster)
    fake = Endpoint(cluster["ws2"], directory, name="monitor")
    fake.send_and_forget(registry.address,
                         Register(host="ws2", static_info={"os": "x"}))
    fake.send_and_forget(
        registry.address,
        StatusUpdate(host="ws2", state=SystemState.FREE,
                     metrics={"loadavg1": 0.1}),
    )
    cluster.run(until=5)
    rec = registry.table.get("ws2")
    assert rec.static_info == {"os": "x"}
    assert rec.metrics["loadavg1"] == 0.1


def test_a_register_the_table_cannot_read_is_refused_and_counted():
    """A ``cpu_speed`` that is not a number refuses the ``Register``
    (nothing registered, counted) instead of raising out of
    ``env.run``; the host's next heartbeat still folds."""
    cluster = Cluster(n_hosts=2, seed=0)
    directory, registry = deploy(cluster)
    fake = Endpoint(cluster["ws2"], directory, name="monitor")
    fake.send_and_forget(registry.address, Register(
        host="h1", static_info={"cpu_speed": "fast"}))
    cluster.run(until=2)
    assert "h1" not in registry.table
    assert registry.core.registers_refused == 1
    fake.send_and_forget(registry.address, StatusUpdate(
        host="h1", state=SystemState.FREE, metrics={"loadavg1": 0.1}))
    cluster.run(until=5)
    rec = registry.table.get("h1")
    assert rec.updates_received == 1 and rec.static_info == {}


def test_overloaded_update_triggers_migrate_command():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, registry_host="ws3")
    updates = [
        (1.0, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.1})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={"loadavg1": 3.0},
                           processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert len(commands) == 1
    _, cmd = commands[0]
    assert isinstance(cmd, MigrateCommand)
    assert cmd.pid == 101 and cmd.dest == "ws2"
    assert cmd.decision_seconds >= 0
    assert registry.decisions[0].dest == "ws2"


def test_no_candidate_no_command():
    cluster = Cluster(n_hosts=2, seed=0)
    directory, registry = deploy(cluster, registry_host="ws2")
    updates = [
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={}, processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert commands == []
    assert registry.decisions[0].dest is None


def test_source_never_chosen_as_destination():
    cluster = Cluster(n_hosts=2, seed=0)
    directory, registry = deploy(cluster, registry_host="ws2")
    updates = [
        (0.5, StatusUpdate(host="ws1", state=SystemState.FREE,
                           metrics={"loadavg1": 0.0})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={"loadavg1": 9.0},
                           processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert commands == []


def test_busy_hosts_not_eligible():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, registry_host="ws3")
    updates = [
        (0.5, StatusUpdate(host="ws2", state=SystemState.BUSY,
                           metrics={"loadavg1": 1.5})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={}, processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert commands == []


def test_policy_dest_conditions_filter():
    policy = MigrationPolicy(
        name="p",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    cluster = Cluster(n_hosts=4, seed=0)
    directory, registry = deploy(cluster, registry_host="ws4",
                                 policy=policy)
    updates = [
        # FREE but load 1.5 — fails the dest condition.
        (0.5, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 1.5})),
        (0.6, StatusUpdate(host="ws3", state=SystemState.FREE,
                           metrics={"loadavg1": 0.2})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={}, processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert len(commands) == 1
    assert commands[0][1].dest == "ws3"


def test_first_fit_registration_order():
    cluster = Cluster(n_hosts=4, seed=0)
    directory, registry = deploy(cluster, registry_host="ws4")
    updates = [
        (0.5, StatusUpdate(host="ws3", state=SystemState.FREE,
                           metrics={"loadavg1": 0.0})),
        (0.6, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.0})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={}, processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    # ws3 updated (and thus registered) first → first fit.
    assert commands[0][1].dest == "ws3"


def test_command_cooldown_suppresses_repeats():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, registry_host="ws3",
                                 command_cooldown=30.0)
    overloaded = StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                              metrics={}, processes=[proc_info()])
    free = StatusUpdate(host="ws2", state=SystemState.FREE,
                        metrics={"loadavg1": 0.0})
    updates = [(0.5, free)] + [(5.0, overloaded) for _ in range(5)]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=40)
    assert len(commands) == 1


def test_victim_selection_latest_eta():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, registry_host="ws3")
    updates = [
        (0.5, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.0})),
        (1.0, StatusUpdate(
            host="ws1", state=SystemState.OVERLOADED, metrics={},
            processes=[proc_info(pid=1, eta=100.0),
                       proc_info(pid=2, eta=900.0),
                       proc_info(pid=3, eta=500.0)])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert commands[0][1].pid == 2


def test_lease_expiry_disqualifies_destination():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, registry_host="ws3", lease=20.0)
    updates = [
        (1.0, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.0})),
        # ws2 then goes silent; overload reported after the lease.
        (30.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                            metrics={}, processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=60)
    assert commands == []


# -------------------------------------------------------------- hierarchy
def test_hierarchical_escalation_finds_remote_host():
    """Child registry with no local candidate asks the parent, which
    delegates to its other child."""
    cluster = Cluster(n_hosts=6, seed=0)
    directory = EndpointRegistry()
    parent = RegistryScheduler(cluster["ws1"], directory, name="parent")
    child_a = RegistryScheduler(
        cluster["ws2"], directory, name="regA",
        parent_address=parent.address,
    )
    child_b = RegistryScheduler(
        cluster["ws3"], directory, name="regB",
        parent_address=parent.address,
    )
    # Child B has a free host ws5.
    fake_b = Endpoint(cluster["ws5"], directory, name="monitor")
    commander = Endpoint(cluster["ws4"], directory, name="commander")
    commands = []

    def pump(env):
        while True:
            msg, _, _ = yield commander.recv()
            commands.append(msg)

    cluster.env.process(pump(cluster.env))

    def scenario(env):
        # Populate child B's table.
        fake_b.send_and_forget(
            child_b.address,
            StatusUpdate(host="ws5", state=SystemState.FREE,
                         metrics={"loadavg1": 0.0}),
        )
        # Wait for the children's periodic push to the parent.
        yield env.timeout(25)
        # Child A hears that its host ws4 is overloaded; it has no
        # local alternative → escalates.
        fake_a = Endpoint(cluster["ws4"], directory, name="monitor")
        fake_a.send_and_forget(
            child_a.address,
            StatusUpdate(host="ws4", state=SystemState.OVERLOADED,
                         metrics={}, processes=[proc_info()]),
        )

    cluster.env.process(scenario(cluster.env))
    cluster.run(until=60)
    assert len(commands) == 1
    assert commands[0].dest == "ws5"
    decision = next(d for d in child_a.decisions if d.dest)
    assert decision.escalated


def test_hierarchy_no_candidate_anywhere():
    cluster = Cluster(n_hosts=3, seed=0)
    directory = EndpointRegistry()
    parent = RegistryScheduler(cluster["ws1"], directory, name="parent")
    child = RegistryScheduler(cluster["ws2"], directory, name="regA",
                              parent_address=parent.address)
    fake = Endpoint(cluster["ws3"], directory, name="monitor")
    commander = Endpoint(cluster["ws3"], directory, name="commander")
    fake.send_and_forget(
        child.address,
        StatusUpdate(host="ws3", state=SystemState.OVERLOADED,
                     metrics={}, processes=[proc_info()]),
    )
    cluster.run(until=60)
    decision = child.decisions[0]
    assert decision.dest is None and decision.escalated


def test_request_ids_do_not_leak_process_history_into_sim_time():
    """A registry numbers its own candidate queries.  The id goes on
    the wire and simulated transfer time grows with message length, so
    queries issued earlier in the interpreter — by any other registry —
    must not change a run's results by a single bit."""
    from repro.cluster import CpuHog
    from repro.core import policy_2
    from repro.core.rescheduler import Rescheduler, ReschedulerConfig
    from repro.entity.clock import ManualClock
    from repro.registry.core import RegistryCore
    from repro.workloads import TestTreeApp

    def escalated_migration():
        """Two domains under one parent; domain A is overloaded whole,
        so its registry must query the parent for a destination."""
        cluster = Cluster(n_hosts=6, seed=0)
        names = [h.name for h in cluster]
        directory = EndpointRegistry()
        config = ReschedulerConfig(interval=10.0, sustain=3)
        parent = Rescheduler(
            cluster, policy=policy_2(), config=config,
            monitored_hosts=[], registry_host=names[0],
            registry_name="registry-parent", directory=directory,
        )
        domains = [
            Rescheduler(
                cluster, policy=policy_2(), config=config,
                monitored_hosts=hosts, registry_host=hosts[0],
                directory=directory,
                parent_address=parent.registry.address,
            )
            for hosts in (names[:3], names[3:])
        ]
        app = domains[0].launch_app(
            TestTreeApp(), "ws1",
            params={"levels": 10, "trees": 60, "node_cost": 4e-4,
                    "seed": 5},
        )

        def inject(env):
            yield env.timeout(40)
            for name in names[:3]:
                CpuHog(cluster[name], count=4, name="load")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)
        assert any(d.escalated and d.dest
                   for d in domains[0].registry.decisions)
        return app.finished_at, [
            rs.registry.endpoint.bytes_in for rs in [parent] + domains
        ]

    first = escalated_migration()
    # Unrelated traffic: another registry issues ten thousand queries.
    other = RegistryCore(ManualClock(), "elsewhere")
    for _ in range(10_000):
        next(other._query("parent", "app", (), hops=1))
    assert escalated_migration() == first


def test_the_policy_strategy_picks_the_destination():
    """A policy naming best fit sends the victim to the least-loaded
    eligible host, not to the first one in the machine list."""
    cluster = Cluster(n_hosts=4, seed=0)
    directory, registry = deploy(
        cluster, registry_host="ws4",
        policy=replace(policy_2(), strategy="best_fit"))
    updates = [
        (1.0, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.8, "proc_count": 10})),
        (0.0, StatusUpdate(host="ws3", state=SystemState.FREE,
                           metrics={"loadavg1": 0.1, "proc_count": 10})),
        (1.0, StatusUpdate(host="ws1", state=SystemState.OVERLOADED,
                           metrics={"loadavg1": 3.0},
                           processes=[proc_info()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    assert [cmd.dest for _, cmd in commands] == ["ws3"]


def test_an_unknown_policy_strategy_fails_when_the_registry_is_built():
    with pytest.raises(ValueError, match="unknown strategy 'nope'"):
        RegistryCore(ManualClock(), "registry",
                     policy=replace(policy_2(), strategy="nope"))


def serve(hosts, hops):
    """The effects a registry whose table lists ``hosts`` (all FREE, in
    that order) yields answering a ``CandidateRequest`` of ``hops``."""
    core = RegistryCore(ManualClock(), "registry")
    for host in hosts:
        core.table.register(host, {})
        core.table.update(host, SystemState.FREE, {"loadavg1": 0.0})
    request = CandidateRequest(host="parent", app_name="app",
                               req_id="q1", hops=hops)
    (task,) = core.handle(request, "parent")
    return list(task.gen)


def test_a_served_request_at_the_hop_budget_does_not_delegate():
    """At ``MAX_HOPS`` a child-registry pick is answered with no
    destination; a local FREE host is still offered, and below the
    budget the child is asked."""
    reply = CandidateReply(host="registry", dest=None, req_id="q1")
    assert serve(["reg@child"], MAX_HOPS) == [Send("parent", reply)]
    assert serve(["ws2", "reg@child"], MAX_HOPS) == [
        Send("parent", replace(reply, dest="ws2"))]
    query, answer = serve(["reg@child"], MAX_HOPS - 1)
    assert isinstance(query, Query) and query.to == "reg@child"
    assert answer == Send("parent", reply)
