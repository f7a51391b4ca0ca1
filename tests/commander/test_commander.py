"""Commander: signal delivery and error paths."""

import pytest

from repro.cluster import Cluster
from repro.commander import Commander
from repro.hpcm import launch, launch_world
from repro.mpi import MpiRuntime
from repro.protocol import (
    Ack,
    Endpoint,
    EndpointRegistry,
    ExpandCommand,
    MigrateCommand,
    ShrinkCommand,
)
from repro.workloads import MonteCarloPiApp, TestTreeApp

PARAMS = {"levels": 8, "trees": 30, "node_cost": 1e-3, "seed": 0}
PI_PARAMS = {"batches": 10, "batch_size": 500, "sample_cost": 1e-4,
             "seed": 1}


def deploy(n_hosts=2):
    cluster = Cluster(n_hosts=n_hosts, seed=0)
    mpi = MpiRuntime(cluster)
    directory = EndpointRegistry()
    commander = Commander(cluster["ws1"], directory)
    sender = Endpoint(cluster["ws2"], directory, name="registry")
    return cluster, mpi, commander, sender


def collect_acks(cluster, sender):
    acks = []

    def pump(env):
        while True:
            msg, _, _ = yield sender.recv()
            if isinstance(msg, Ack):
                acks.append(msg)

    cluster.env.process(pump(cluster.env))
    return acks


def test_command_reaches_process_and_migrates():
    cluster, mpi, commander, sender = deploy()
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=PARAMS)
    acks = collect_acks(cluster, sender)
    sender.send_and_forget(
        commander.endpoint.address,
        MigrateCommand(host="ws1", pid=rt.process.proc_entry.pid,
                       dest="ws2", reason="test",
                       decision_seconds=0.002),
    )
    cluster.env.run(until=rt.done)
    assert rt.host.name == "ws2"
    (rec,) = rt.migrations
    assert rec.reason == "test"
    assert rec.decision_seconds == 0.002
    assert acks and acks[0].ok
    assert commander.core.log[0].delivered


def test_unknown_pid_nacked():
    cluster, mpi, commander, sender = deploy()
    acks = collect_acks(cluster, sender)
    sender.send_and_forget(
        commander.endpoint.address,
        MigrateCommand(host="ws1", pid=9999, dest="ws2"),
    )
    cluster.run(until=5)
    assert acks and not acks[0].ok
    assert "no such pid" in acks[0].detail


def test_non_migratable_process_nacked():
    cluster, mpi, commander, sender = deploy()
    entry = cluster["ws1"].procs.spawn("plain", kind="background")
    acks = collect_acks(cluster, sender)
    sender.send_and_forget(
        commander.endpoint.address,
        MigrateCommand(host="ws1", pid=entry.pid, dest="ws2"),
    )
    cluster.run(until=5)
    assert acks and not acks[0].ok
    assert "not migration-enabled" in acks[0].detail


@pytest.mark.parametrize("kind", ["expand", "shrink"])
@pytest.mark.parametrize("ranks", [1, 2])
def test_reshape_of_a_rigid_app_is_refused(kind, ranks):
    """A rigid schema refuses Expand and Shrink, for a single-process
    app (a one-rank world) and a rigid two-rank world alike."""
    cluster, mpi, commander, sender = deploy(n_hosts=3)
    if ranks == 1:
        world = launch(mpi, TestTreeApp(), cluster["ws1"],
                       params=PARAMS).world
    else:
        world = launch_world(mpi, MonteCarloPiApp,
                             [cluster["ws1"], cluster["ws2"]],
                             params=PI_PARAMS)
    pid = world.runtimes[0].process.proc_entry.pid
    acks = collect_acks(cluster, sender)
    sender.send_and_forget(
        commander.endpoint.address,
        ExpandCommand(host="ws1", pid=pid, dests=("ws3",))
        if kind == "expand" else
        ShrinkCommand(host="ws1", pid=pid, dest="ws2"),
    )
    cluster.env.run(until=world.finished)
    assert [(a.ok, a.detail) for a in acks] == [
        (False, f"pid {pid} is not malleable")]
    assert world.reconfigurations == []
    assert [rt.status for rt in world.all_runtimes] == ["done"] * ranks
