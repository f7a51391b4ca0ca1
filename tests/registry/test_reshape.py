"""N:M reshape decisions: the ladder, k destinations, the log."""

import pytest

from repro.cluster import Cluster
from repro.core import malleable_policy
from repro.core.policy import PAPER_POLICIES
from repro.entity.clock import ManualClock
from repro.monitor import ProcessInfo
from repro.protocol import (
    Endpoint,
    EndpointRegistry,
    ExpandCommand,
    MigrateCommand,
    ShrinkCommand,
    StatusUpdate,
)
from repro.registry import RegistryScheduler
from repro.registry.core import Reconfigure, RegistryCore
from repro.registry.strategies import best_fit, first_fit, random_fit
from repro.rules import SystemState
from repro.sim.rng import seeded_generator

from .test_vector_differential import (
    random_core,
    random_exclude,
    random_requirements,
    verify,
)

CURVE = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65)


def world_proc(pid=101, world_size=2, max_world=8, curve=CURVE,
               name="mc_pi"):
    return ProcessInfo(
        pid=pid, name=name, start_time=0.0, est_completion=1000.0,
        world_size=world_size, min_world=1, max_world=max_world,
        efficiency_curve=curve,
    ).as_dict()


def deploy(cluster, registry_host, **kw):
    directory = EndpointRegistry()
    registry = RegistryScheduler(
        cluster[registry_host], directory,
        policy=kw.pop("policy", malleable_policy()), **kw,
    )
    return directory, registry


def feed(cluster, directory, registry, updates, commander_host="ws1"):
    fake = Endpoint(cluster[commander_host], directory, name="monitor")
    commander = Endpoint(cluster[commander_host], directory,
                         name="commander")
    commands = []

    def pump(env):
        while True:
            msg, _, _ = yield commander.recv()
            commands.append(msg)

    cluster.env.process(pump(cluster.env))

    def sender(env):
        for delay, msg in updates:
            yield env.timeout(delay)
            fake.send_and_forget(registry.address, msg)

    cluster.env.process(sender(cluster.env))
    return commands


def free(host, load=0.1):
    # proc_count rides along: policy 2's destination conditions bound
    # both metrics, and a missing one reads as ineligible.
    return StatusUpdate(host=host, state=SystemState.FREE,
                        metrics={"loadavg1": load, "proc_count": 10.0})


def overloaded(host, load, processes):
    return StatusUpdate(host=host, state=SystemState.OVERLOADED,
                        metrics={"loadavg1": load}, processes=processes)


# -- the reshape ladder, end to end through the scheduler ---------------

def test_moderate_overload_grows_the_world():
    cluster = Cluster(n_hosts=4, seed=0)
    directory, registry = deploy(cluster, "ws4")
    updates = [
        (1.0, free("ws2")),
        (1.0, free("ws3")),
        (1.0, overloaded("ws1", 3.0, [world_proc()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, ExpandCommand)
    assert cmd.pid == 101 and len(cmd.dests) == 1
    assert cmd.dests[0] in ("ws2", "ws3")
    (rec,) = registry.reconfigurations
    assert rec.effect == "expand" and rec.app == "mc_pi"
    assert "grow" in rec.reason


def test_severe_overload_shrinks_onto_a_peer():
    cluster = Cluster(n_hosts=4, seed=0)
    directory, registry = deploy(cluster, "ws4")
    updates = [
        # ws2 hosts another rank of the same world: the merge peer.
        (1.0, StatusUpdate(host="ws2", state=SystemState.FREE,
                           metrics={"loadavg1": 0.5},
                           processes=[world_proc(pid=102)])),
        (1.0, free("ws3")),
        (1.0, overloaded("ws1", 5.0, [world_proc()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, ShrinkCommand)
    assert cmd.pid == 101 and cmd.dest == "ws2"
    (rec,) = registry.reconfigurations
    assert rec.effect == "shrink" and rec.dests == ("ws2",)


def test_shrink_without_a_peer_falls_back_to_migration():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, "ws3")
    updates = [
        (1.0, free("ws2")),
        (1.0, overloaded("ws1", 5.0, [world_proc()])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, MigrateCommand)
    assert cmd.dest == "ws2"


def test_rigid_process_migrates_under_malleable_policy():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, "ws3")
    rigid = ProcessInfo(pid=7, name="app", start_time=0.0,
                        est_completion=500.0).as_dict()
    updates = [
        (1.0, free("ws2")),
        (1.0, overloaded("ws1", 3.0, [rigid])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, MigrateCommand)


def test_efficiency_floor_blocks_growth():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(
        cluster, "ws3", policy=malleable_policy(min_efficiency=0.9),
    )
    proc = world_proc(curve=(1.0, 0.95, 0.4))  # collapses at 3 ranks
    updates = [
        (1.0, free("ws2")),
        (1.0, overloaded("ws1", 3.0, [proc])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, MigrateCommand)


def test_world_cap_blocks_growth():
    cluster = Cluster(n_hosts=3, seed=0)
    directory, registry = deploy(cluster, "ws3")
    updates = [
        (1.0, free("ws2")),
        (1.0, overloaded("ws1", 3.0,
                         [world_proc(world_size=4, max_world=4)])),
    ]
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, MigrateCommand)


def test_grow_step_requests_k_hosts_capped_by_the_envelope():
    cluster = Cluster(n_hosts=6, seed=0)
    directory, registry = deploy(
        cluster, "ws6", policy=malleable_policy(grow_step=3),
    )
    updates = [(1.0, free(f"ws{i}")) for i in (2, 3, 4, 5)]
    updates.append(
        (1.0, overloaded("ws1", 3.0,
                         [world_proc(world_size=6, max_world=8)])),
    )
    commands = feed(cluster, directory, registry, updates)
    cluster.run(until=10)
    (cmd,) = commands
    assert isinstance(cmd, ExpandCommand)
    # grow_step asks for 3, but the envelope only admits 8 - 6 = 2.
    assert len(cmd.dests) == 2


def test_reconfigure_key_and_decision_projection():
    rec = Reconfigure(
        at=12.0, effect="expand", source="ws1", dests=("ws2", "ws3"),
        pid=101, app="mc_pi", reason="r", decision_seconds=0.5,
    )
    assert rec.key() == ("expand", "ws1", ("ws2", "ws3"), 101, "r",
                         False)
    # The 1:1 view: the first destination, or None when there is none.
    assert rec.dest == "ws2"
    assert Reconfigure(
        at=12.0, effect="migrate", source="ws1", dests=(), pid=101,
        app="mc_pi", reason="r", decision_seconds=0.5,
    ).dest is None


def test_decisions_is_the_migrate_view_of_reconfigurations():
    core = RegistryCore(ManualClock(), "registry")
    assert core.decisions == []
    for effect in ("migrate", "expand", "migrate", "shrink"):
        core.reconfigurations.append(Reconfigure(
            at=0.0, effect=effect, source="ws1", dests=("ws2",),
            pid=1, app="a", reason="r", decision_seconds=0.0,
        ))
    assert core.decisions == [core.reconfigurations[0],
                              core.reconfigurations[2]]


# -- k-destination selection: production ≡ reference -------------------

@pytest.mark.parametrize("strategy", [first_fit, best_fit, random_fit],
                         ids=lambda s: s.__name__)
@pytest.mark.parametrize("policy_no", [None, 2])
def test_k_destination_differential(strategy, policy_no):
    """The reshape path (child registries masked out): production and
    reference top-k picks agree on 30 random registries per
    strategy/policy combination, for a random k each."""
    base = (policy_no or 0) * 2000 + sum(map(ord, strategy.__name__)) % 991
    for trial in range(30):
        policy = PAPER_POLICIES[policy_no]() if policy_no else None
        core, rng = random_core(base + trial, strategy, policy=policy)
        exclude = random_exclude(rng)
        req = random_requirements(rng)
        k = int(rng.integers(1, 5))
        picked = verify(core, k, exclude, req, children=False)
        assert len(picked) <= k
        assert not any("@" in host for host in picked)


def test_k_destination_verify_mode_runs_clean():
    for strategy in (first_fit, best_fit, random_fit):
        core, rng = random_core(13, strategy, policy=malleable_policy())
        for k in (1, 2, 3, 5):
            verify(core, k, (), random_requirements(rng), children=False)


def test_k_destinations_degenerate_cases():
    core = RegistryCore(ManualClock(), "registry",
                        rng=seeded_generator(1))
    for name in ("a", "b", "c"):
        core.table.register(name, {})
        core.table.update(name, SystemState.FREE, {})
    assert core._pick_destinations(0, (), None, True) == []
    # k beyond the eligible pool returns everyone, machine-list order.
    assert core._pick_destinations(10, (), None, True) == ["a", "b", "c"]
    assert core._pick_destinations(1, (), None, True) == ["a"]
