"""Live malleability: Expand/Shrink over real sockets and threads.

The live analog of the sim world's poll-point repartition: an
ExpandCommand deals a task's remaining range into shards that resume
on peer nodes; a ShrinkCommand folds a shard back into a running peer
of its type.  The conservation law is the same as the sim's — no
iteration of the range is lost or double-counted through any sequence
of reshapes — checked here against the closed-form answer.
"""

import time

import pytest

from repro.core import MetricPredicate, MigrationPolicy
from repro.live import (
    LiveNode,
    LiveRegistry,
    sqrt_sum_expected,
    sqrt_sum_state,
)
from repro.protocol import ExpandCommand, ShrinkCommand
from repro.trace.events import EV_LIVE_RESUME, EV_LIVE_SHIP

from ..catalogued import catalogued


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def submit_sqrt(node, n, chunk=200_000):
    return node.submit(
        "sqrt_sum", sqrt_sum_state(n=n, chunk=chunk),
        est_seconds=120.0, world_size=1, min_world=1, max_world=4,
        efficiency_curve=(1.0, 0.95, 0.9, 0.85),
    )


def total_acc(nodes):
    return sum(t.result["acc"] for nd in nodes for t in nd.completed)


def test_expand_command_shards_across_nodes():
    node, peer = LiveNode("m1"), LiveNode("m2")
    try:
        n = 20_000_000
        task = submit_sqrt(node, n)
        ack = node.commander.command(ExpandCommand(
            host=node.address, pid=task.task_id,
            dests=(peer.address,),
        ))
        assert ack.ok
        assert wait_for(lambda: peer.migrations_in == 1, timeout=30.0)
        # The sender counts a shard once its send returns, which can be
        # after the receiver has taken it in.
        assert wait_for(lambda: node.expands_out == 1)
        assert task.world_size == 2
        shard = next(iter(peer.tasks.values()), None)
        if shard is not None:  # may already have finished
            assert shard.world_size == 2
        assert wait_for(
            lambda: len(node.completed) + len(peer.completed) == 2,
            timeout=60.0,
        )
        # The dealt ranges tile [0, n): the sum is exact up to float
        # reassociation at the shard boundary.
        assert total_acc((node, peer)) == pytest.approx(
            sqrt_sum_expected(n)
        )
    finally:
        node.stop()
        peer.stop()


@catalogued(EV_LIVE_RESUME, EV_LIVE_SHIP)
def test_shrink_command_merges_the_shard_back():
    node, peer = LiveNode("m1"), LiveNode("m2")
    try:
        n = 30_000_000
        task = submit_sqrt(node, n)
        node.commander.command(ExpandCommand(
            host=node.address, pid=task.task_id,
            dests=(peer.address,),
        ))
        assert wait_for(lambda: len(peer.tasks) == 1, timeout=30.0)
        shard = next(iter(peer.tasks.values()))
        ack = peer.commander.command(ShrinkCommand(
            host=peer.address, pid=shard.task_id, dest=node.address,
        ))
        assert ack.ok
        assert wait_for(lambda: node.merges_in == 1, timeout=30.0)
        assert wait_for(lambda: peer.shrinks_out == 1)
        assert task.done.wait(timeout=60.0)
        # The round trip conserves every term: the shard's partial acc
        # and its unfinished range both fold back into the owner.
        assert task.result["acc"] == pytest.approx(sqrt_sum_expected(n))
        assert len(node.completed) == 1 and peer.completed == []
        assert task.world_size == 1
    finally:
        node.stop()
        peer.stop()


def test_expand_refusals_are_acked_not_crashed():
    node = LiveNode("m1")
    try:
        task = submit_sqrt(node, 5_000_000)
        ack = node.commander.command(ExpandCommand(
            host=node.address, pid=9999, dests=("x:1",),
        ))
        assert not ack.ok and "no such task" in ack.detail
        ack = node.commander.command(ExpandCommand(
            host=node.address, pid=task.task_id, dests=(),
        ))
        assert not ack.ok and "without destinations" in ack.detail
        ack = node.commander.command(ShrinkCommand(
            host=node.address, pid=task.task_id, dest="",
        ))
        assert not ack.ok and "without a merge peer" in ack.detail
        assert task.done.wait(timeout=30.0)
        assert task.result["acc"] == pytest.approx(
            sqrt_sum_expected(5_000_000)
        )
    finally:
        node.stop()


def test_expand_to_unreachable_dest_folds_the_shard_back():
    node = LiveNode("m1")
    try:
        n = 5_000_000
        task = submit_sqrt(node, n)
        task.expand_to = ("127.0.0.1:1",)  # nobody listens there
        assert task.done.wait(timeout=30.0)
        assert node.expands_out == 0
        assert task.world_size == 1
        assert task.result["acc"] == pytest.approx(sqrt_sum_expected(n))
    finally:
        node.stop()


def test_live_autonomic_expand_end_to_end():
    """The N:M pipeline on real sockets: overload → grow trigger →
    ExpandCommand → shard over TCP → both halves finish → exact sum."""
    policy = MigrationPolicy(
        name="live-malleable",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
        grow_triggers=(MetricPredicate("loadavg1", ">", 2.0),),
    )
    registry = LiveRegistry(policy=policy, lease=5.0,
                            command_cooldown=0.5)
    source = LiveNode("source", registry_address=registry.address,
                      interval=0.1, capacity_threshold=1.5)
    helpers = [
        LiveNode(f"helper{i}", registry_address=registry.address,
                 interval=0.1)
        for i in (1, 2)
    ]
    nodes = [source] + helpers
    try:
        n = 30_000_000
        source.submit(
            "sqrt_sum", sqrt_sum_state(n=n, chunk=500_000),
            est_seconds=120.0, world_size=1, min_world=1, max_world=4,
            efficiency_curve=(1.0, 0.95, 0.9, 0.85),
        )
        source.inject_load(3.0)
        assert wait_for(lambda: source.expands_out >= 1, timeout=30.0)
        rec = next(r for r in registry.reconfigurations
                   if r.effect == "expand")
        assert rec.source == source.address and rec.dests
        # Every shard — however many times the persistent overload
        # re-expanded the world — must land and finish somewhere.
        expected_tasks = 1 + source.expands_out
        assert wait_for(
            lambda: (sum(len(nd.tasks) for nd in nodes) == 0
                     and sum(len(nd.completed) for nd in nodes)
                     >= expected_tasks),
            timeout=90.0,
        )
        assert total_acc(nodes) == pytest.approx(sqrt_sum_expected(n))
    finally:
        for nd in nodes:
            nd.stop()
        registry.stop()
