"""Live mode: real sockets, real threads, real /proc, real migration."""

import socket
import struct
import threading
import time

import pytest

from repro.core import MetricPredicate, MigrationPolicy
from repro.live import (
    LiveEndpoint,
    LiveNode,
    LiveRegistry,
    load_averages,
    memory_info,
    process_count,
    snapshot,
    sqrt_sum_expected,
    sqrt_sum_state,
)
from repro.live.proc_sensors import CpuIdleSampler, NetRateSampler
from repro.live.transport import MAX_FRAME_BYTES
from repro.protocol import Ack, Register, StatusUpdate
from repro.rules import SystemState


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------- /proc sensors
def test_proc_load_averages():
    loads = load_averages()
    assert loads is not None and len(loads) == 3
    assert all(v >= 0 for v in loads)


def test_proc_process_count():
    count = process_count()
    assert count is not None and count > 1


def test_proc_memory_info():
    mem = memory_info()
    assert mem is not None
    assert mem["MemTotal"] > 0
    assert 0 <= mem["mem_avail_pct"] <= 100


def test_proc_cpu_idle_sampler():
    sampler = CpuIdleSampler()
    time.sleep(0.05)
    idle = sampler.sample()
    assert idle is None or 0 <= idle <= 100


def test_proc_snapshot_vocabulary():
    snap = snapshot(CpuIdleSampler(), NetRateSampler())
    assert "loadavg1" in snap
    assert "proc_count" in snap


# ------------------------------------------------------------- transport
def test_endpoint_message_roundtrip():
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        ok = a.send_message(b.address, Ack(host="a", detail="hi"),
                            timestamp=1.5)
        assert ok
        item = b.recv(timeout=5.0)
        assert item is not None
        kind, (msg, sender, ts) = item
        assert kind == "msg"
        assert msg.detail == "hi"
        assert sender == a.address
        assert ts == 1.5
    finally:
        a.close()
        b.close()


def test_endpoint_state_roundtrip():
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        blob = b"\x00\x01" * 50_000  # 100 KB binary state
        assert a.send_state(b.address, {"task_type": "x", "hops": 1},
                            blob)
        kind, (header, received) = b.recv(timeout=5.0)
        assert kind == "state"
        assert header["task_type"] == "x"
        assert received == blob
    finally:
        a.close()
        b.close()


def test_endpoint_send_to_dead_address_returns_false():
    a = LiveEndpoint("a")
    try:
        assert not a.send_message("127.0.0.1:1", Ack(host="a"),
                                  timestamp=0.0)
    finally:
        a.close()


def _state_frame(header: bytes, blob: bytes = b"") -> bytes:
    payload = struct.pack(">I", len(header)) + header + blob
    return struct.pack(">cI", b"S", len(payload)) + payload


@pytest.mark.parametrize("bad_payload", [
    b"\x00\x01",                                # shorter than its length field
    struct.pack(">I", 100) + b'{"a": 1}',       # header longer than payload
    struct.pack(">I", 5) + b"{nope",            # bad JSON
    struct.pack(">I", 2) + b"\xff\xfe",         # bad UTF-8
], ids=["short", "truncated-header", "bad-json", "bad-utf8"])
def test_malformed_state_frame_is_dropped_and_next_frame_delivered(
        bad_payload):
    """Frames from the network are not trusted: a malformed ``S`` frame
    is dropped like a malformed ``M`` frame, and the good frame behind
    it on the same connection still arrives."""
    b = LiveEndpoint("b")
    try:
        with socket.create_connection((b.host, b.port), timeout=5.0) as s:
            s.sendall(struct.pack(">cI", b"S", len(bad_payload))
                      + bad_payload)
            s.sendall(struct.pack(">cI", b"M", 7) + b"not xml")
            s.sendall(_state_frame(b'{"task_type": "x"}', b"blob"))
            item = b.recv(timeout=5.0)
        assert item == ("state", ({"task_type": "x"}, b"blob"))
        assert b.inbox.empty()
    finally:
        b.close()


def test_oversized_frame_length_closes_the_connection():
    """A length above ``MAX_FRAME_BYTES`` is never buffered: the
    endpoint closes the connection, and keeps serving new ones."""
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        with socket.create_connection((b.host, b.port), timeout=5.0) as s:
            s.sendall(struct.pack(">cI", b"S", MAX_FRAME_BYTES + 1))
            assert s.recv(1) == b""  # closed by the peer, nothing read
        assert b.inbox.empty()
        assert a.send_state(b.address, {"task_type": "x"}, b"ok")
        assert b.recv(timeout=5.0) == ("state", ({"task_type": "x"}, b"ok"))
    finally:
        a.close()
        b.close()


# -------------------------------------------------------------- node/task
def test_task_runs_to_completion():
    node = LiveNode("n1")
    try:
        n = 200_000
        task = node.submit("sqrt_sum", sqrt_sum_state(n=n, chunk=50_000))
        assert task.done.wait(timeout=20.0)
        assert task.result["acc"] == pytest.approx(sqrt_sum_expected(n))
        assert task.task_id not in node.tasks
    finally:
        node.stop()


def test_a_held_task_waits_at_its_first_poll_point():
    node = LiveNode("n1")
    try:
        release = threading.Event()
        task = node.submit("sqrt_sum", sqrt_sum_state(n=1000, chunk=1000),
                           hold=release)
        assert not task.done.wait(timeout=0.3)
        assert task.state["i"] == 0
        assert node.current_load() == pytest.approx(1.1)
        release.set()
        assert task.done.wait(timeout=20.0)
        assert task.result["acc"] == pytest.approx(sqrt_sum_expected(1000))
    finally:
        node.stop()


def test_unknown_task_type_rejected():
    node = LiveNode("n1")
    try:
        with pytest.raises(KeyError):
            node.submit("teleport", {})
    finally:
        node.stop()


def test_node_load_tracks_occupancy():
    node = LiveNode("n1")
    try:
        base = node.current_load()
        node.submit("sqrt_sum", sqrt_sum_state(n=10**8, chunk=10**5))
        assert node.current_load() == pytest.approx(base + 1.0)
        node.inject_load(2.0)
        assert node.current_load() == pytest.approx(base + 3.0)
    finally:
        node.stop()


def test_node_registers_and_pushes_status():
    registry = LiveRegistry(lease=5.0)
    node = LiveNode("n1", registry_address=registry.address,
                    interval=0.1)
    try:
        assert wait_for(
            lambda: registry.table.get(node.address) is not None
            and registry.table.get(node.address).updates_received > 2
        )
        rec = registry.table.get(node.address)
        assert rec.metrics["loadavg1"] >= 0
    finally:
        node.stop()
        registry.stop()


def test_a_register_the_table_cannot_read_leaves_the_loop_serving():
    """Over real sockets: a ``Register`` whose ``cpu_speed`` is not a
    number is refused and counted, and the registry's loop thread
    lives on to fold the heartbeat sent after it."""
    registry = LiveRegistry(lease=5.0)
    client = LiveEndpoint("client")
    try:
        assert client.send_message(registry.address, Register(
            host="h1", static_info={"cpu_speed": "fast"}), timestamp=1.0)
        assert wait_for(lambda: registry.core.registers_refused == 1)
        assert registry.table.get("h1") is None
        assert client.send_message(registry.address, StatusUpdate(
            host="h1", state=SystemState.FREE, metrics={"loadavg1": 0.5}),
            timestamp=2.0)
        assert wait_for(lambda: registry.table.get("h1") is not None)
        rec = registry.table.get("h1")
        assert rec.updates_received == 1
        assert rec.metrics["loadavg1"] == 0.5
    finally:
        client.close()
        registry.stop()


# --------------------------------------------------- end-to-end migration
def test_live_autonomic_migration_end_to_end():
    """The whole paper pipeline on real sockets: overload → soft-state
    push → decision → migrate command → checkpoint → state over TCP →
    resume elsewhere → identical result."""
    policy = MigrationPolicy(
        name="live",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )
    registry = LiveRegistry(policy=policy, lease=5.0,
                            command_cooldown=0.5)
    source = LiveNode("source", registry_address=registry.address,
                      interval=0.1, capacity_threshold=1.5)
    dest = LiveNode("dest", registry_address=registry.address,
                    interval=0.1)
    try:
        n = 30_000_000
        source.submit(
            "sqrt_sum", sqrt_sum_state(n=n, chunk=500_000),
            est_seconds=120.0,
        )
        # Simulate the 'additional tasks' landing on the source.
        source.inject_load(3.0)
        # The migration must eventually arrive and finish at the dest.
        assert wait_for(lambda: dest.migrations_in == 1, timeout=30.0)
        assert wait_for(lambda: source.migrations_out == 1)
        assert wait_for(lambda: len(dest.completed) == 1, timeout=60.0)
        resumed = dest.completed[0]
        assert resumed.result["acc"] == pytest.approx(
            sqrt_sum_expected(n)
        )
        assert resumed.hops == 1
        decision = next(d for d in registry.decisions if d.dest)
        assert decision.dest == dest.address
    finally:
        source.stop()
        dest.stop()
        registry.stop()


def test_live_migration_to_unreachable_dest_resumes_locally():
    node = LiveNode("n1")
    try:
        n = 5_000_000
        task = node.submit("sqrt_sum", sqrt_sum_state(n=n, chunk=200_000))
        task.migrate_to = "127.0.0.1:1"  # nobody listens there
        assert task.done.wait(timeout=30.0)
        assert task.result["acc"] == pytest.approx(sqrt_sum_expected(n))
        assert node.migrations_out == 0
    finally:
        node.stop()
