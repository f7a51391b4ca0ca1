"""The one-loop transport: order, persistence, backpressure, counters.

Each endpoint runs one ``selectors`` loop thread and keeps one outbound
connection per peer, so: frames from one sender fold in sending order,
a decision is over before the next frame is read (no report can meet
its own predecessor's in-flight guard), a heartbeat costs neither a
connection nor a thread, and nothing is dropped without a counter
saying so.  All over real localhost sockets.
"""

import os
import socket
import struct
import sys
import threading
import time

import pytest

from repro.live import LiveEndpoint, LiveRegistry
from repro.live import transport
from repro.protocol import (
    Ack,
    MigrateCommand,
    Register,
    StatusUpdate,
    messages,
)
from repro.rules.states import SystemState

from ..callcount import count_calls, exceptions_raised


def wait_for(predicate, timeout=10.0, interval=0.001):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def heartbeat(host, state=SystemState.FREE, **extra):
    return StatusUpdate(host=host, state=state,
                        metrics={"loadavg1": 0.1}, **extra)


def folded(registry):
    return sum(r.updates_received for r in registry.table.records())


def ingest(client, registry, updates, window):
    """Closed loop: at most ``window`` updates sent but not yet folded."""
    base = folded(registry)
    for sent, update in enumerate(updates):
        assert wait_for(lambda: sent - (folded(registry) - base) < window)
        assert client.send_message(registry.address, update, time.time())
    assert wait_for(lambda: folded(registry) - base == len(updates))


def frame(msg, sender="127.0.0.1:9"):
    data = messages.encode(msg, sender=sender, timestamp=0.0)
    return struct.pack(">cI", b"M", len(data)) + data


# ------------------------------------------------------------ decisions
def test_single_source_overload_reports_are_all_answered():
    """The ``_deciding`` drop: 3 000 unpaced OVERLOADED reports from one
    endpoint, each waiting for its command.  On a thread per decision
    about 1 report in 2 600 met the guard its predecessor's thread still
    held and was dropped unanswered; on the loop the decision is over
    before the next frame is read."""
    registry = LiveRegistry(lease=3600.0, command_cooldown=0.0)
    feeder = LiveEndpoint("feeder")
    source = LiveEndpoint("source")
    try:
        hosts = [f"h{i:03d}" for i in range(256)]
        ingest(feeder, registry, [heartbeat(h) for h in hosts], window=1)
        report = heartbeat(
            source.address, SystemState.OVERLOADED,
            processes=[{"pid": 7, "name": "sqrt_sum", "start_time": 0.0,
                        "est_completion": 60.0, "data_locality": 0.0}])
        answered = 0
        for _ in range(3000):
            assert source.send_message(registry.address, report,
                                       time.time())
            item = source.recv(timeout=2.0)
            if item is None:
                continue
            msg = item[1][0]
            assert isinstance(msg, MigrateCommand)
            assert (msg.host, msg.pid, msg.dest) == (
                source.address, 7, hosts[0])
            answered += 1
        assert answered == 3000
        assert registry.reports_guarded == 0
    finally:
        source.close()
        feeder.close()
        registry.stop()


def test_reports_guarded_counts_the_cooldown():
    registry = LiveRegistry(lease=3600.0, command_cooldown=60.0)
    source = LiveEndpoint("source")
    try:
        ingest(source, registry, [heartbeat("calm")], window=1)
        report = heartbeat(
            source.address, SystemState.OVERLOADED,
            processes=[{"pid": 7, "name": "app", "start_time": 0.0,
                        "est_completion": 60.0, "data_locality": 0.0}])
        ingest(source, registry, [report] * 5, window=1)
        assert len(registry.decisions) == 1
        assert registry.reports_guarded == 4
    finally:
        source.close()
        registry.stop()


# ---------------------------------------------------------------- order
def test_fold_order_is_sending_order():
    """One endpoint registers 256 hosts with eight sends in flight;
    first fit follows the table's order, so it must be the sender's.
    (A thread per connection folded 35–60 of them out of order.)"""
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    try:
        hosts = [f"h{(i * 37) % 256:03d}" for i in range(256)]
        ingest(client, registry, [heartbeat(h) for h in hosts], window=8)
        assert [r.host for r in registry.table.records()] == hosts
    finally:
        client.close()
        registry.stop()


def test_open_loop_heartbeats_all_fold():
    """2 000 heartbeats sent without waiting for any fold: behind
    ``listen(16)`` and a connection each, the sender collapsed into SYN
    retransmits; here they queue on one connection."""
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    try:
        for i in range(2000):
            assert client.send_message(
                registry.address, heartbeat(f"h{i % 64:02d}"), time.time())
        assert wait_for(lambda: folded(registry) == 2000, timeout=5.0)
        assert client.sends_refused == 0
    finally:
        client.close()
        registry.stop()


# -------------------------------------------- connections and threads
@pytest.mark.costguard
def test_heartbeats_cost_one_connection_and_no_thread(monkeypatch):
    """The connection-count guard: 1 000 heartbeats from one endpoint
    dial once and start nothing."""
    dials = []
    real = socket.create_connection

    def counting(*args, **kwargs):
        dials.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    try:
        threads = threading.active_count()
        ingest(client, registry,
               [heartbeat(f"h{i % 64:02d}") for i in range(1000)], window=8)
        assert len(dials) == 1
        assert threading.active_count() == threads
    finally:
        client.close()
        registry.stop()


@pytest.mark.costguard
def test_a_send_to_a_connected_peer_is_bounded_and_raises_nothing():
    """A heartbeat on an open connection: the target is parsed once per
    endpoint and the hang-up probe is a poll, so the send makes a fixed
    number of calls and no exception is raised and caught on the way:
    40 calls and a ``BlockingIOError`` with a ``recv(1)`` probe and a
    parse per send."""
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    try:
        beat = heartbeat("h")
        ingest(client, registry, [beat], window=1)  # dials

        def send():
            assert client.send_message(registry.address, beat, 0.0)

        assert count_calls(send) <= 32
        assert exceptions_raised(send) == []
        assert wait_for(lambda: folded(registry) == 3)
    finally:
        client.close()
        registry.stop()


@pytest.mark.costguard
def test_registry_serves_64_peers_on_one_thread():
    before = threading.active_count()
    registry = LiveRegistry(lease=3600.0)
    assert threading.active_count() == before + 1
    socks = []
    try:
        host, port = LiveEndpoint._parse(registry.address)
        for i in range(64):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(frame(heartbeat(f"p{i:02d}")))
            socks.append(sock)
        assert wait_for(lambda: folded(registry) == 64)
        assert threading.active_count() == before + 1
    finally:
        for sock in socks:
            sock.close()
        registry.stop()
    assert wait_for(lambda: threading.active_count() == before)


# ------------------------------------------------ reconnect and hygiene
def test_the_send_target_memo_is_bounded():
    """Send addresses can arrive from the network: an endpoint's memo
    of parsed targets stays bounded, and every send is delivered
    before and after it empties itself."""
    a, b = LiveEndpoint("a"), LiveEndpoint("b")
    try:
        sends = transport._TARGETS_MAX + 100
        for i in range(sends):
            assert a.send_message(f"n{i}@{b.address}", Ack(host="a"), 0.0)
            assert len(a._targets) <= transport._TARGETS_MAX
        assert wait_for(lambda: b.frames_in == sends)
    finally:
        a.close()
        b.close()


def test_concurrent_senders_share_one_connection_and_its_probe():
    """Threads sending to one peer at once share its connection and its
    hang-up probe (one poll object, one caller at a time): every frame
    arrives, no send fails and nothing is redialled."""
    a, b = LiveEndpoint("a"), LiveEndpoint("b")
    results = []

    def sender():
        results.append(all([
            a.send_message(b.address, Ack(host="a"), 0.0)
            for _ in range(500)]))

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sender) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 4
        assert wait_for(lambda: b.frames_in == 2000)
        assert a.reconnects == 0
    finally:
        a.close()
        b.close()


def test_send_reconnects_after_registry_restart():
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    try:
        port = registry.endpoint.port
        ingest(client, registry, [heartbeat("a")], window=1)
        registry.stop()
        registry = LiveRegistry(lease=3600.0, port=port)
        assert client.send_message(registry.address, heartbeat("b"),
                                   time.time())
        assert wait_for(lambda: folded(registry) == 1)
        time.sleep(0.05)
        assert [r.host for r in registry.table.records()] == ["b"]
        assert folded(registry) == 1  # delivered once
        assert client.reconnects == 1
    finally:
        client.close()
        registry.stop()


def test_peer_that_never_reads_is_refused_past_the_cap(monkeypatch):
    """A stalled peer costs its senders ``False``, never the loop: the
    same endpoint keeps answering others meanwhile."""
    monkeypatch.setattr(transport, "MAX_OUT_BUFFER_BYTES", 1 << 16)
    deaf = socket.socket()
    deaf.bind(("127.0.0.1", 0))
    deaf.listen(1)  # accepts in the kernel, never reads
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        deaf_address = "127.0.0.1:%d" % deaf.getsockname()[1]
        blob = b"x" * (1 << 20)
        results = [a.send_state(deaf_address, {"task_type": "x"}, blob)
                   for _ in range(32)]
        assert results[0] is True
        assert results[-1] is False
        assert a.sends_refused == results.count(False)
        # The loop is not stuck behind the deaf peer: it still receives
        # and its senders still reach everybody else.
        assert b.send_message(a.address, Ack(host="b"), timestamp=0.0)
        assert a.recv(timeout=5.0) is not None
        assert a.send_message(b.address, Ack(host="a"), timestamp=0.0)
        assert b.recv(timeout=5.0) is not None
    finally:
        a.close()
        b.close()
        deaf.close()


def test_frames_split_and_coalesced_both_decode():
    """A frame split across three ``recv``s, then two frames in one."""
    b = LiveEndpoint("b")
    try:
        one = frame(Register(host="h1", static_info={"name": "n"}))
        with socket.create_connection((b.host, b.port), timeout=5.0) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for part in (one[:3], one[3:40], one[40:]):
                s.sendall(part)
                time.sleep(0.05)
            item = b.recv(timeout=5.0)
            assert item[0] == "msg" and item[1][0].host == "h1"
            s.sendall(frame(Ack(host="x")) + frame(Ack(host="y")))
            hosts = [b.recv(timeout=5.0)[1][0].host for _ in range(2)]
        assert hosts == ["x", "y"]
        assert b.frames_in == 3
    finally:
        b.close()


# -------------------------------------------------------------- counters
def test_frames_in_and_frames_malformed_count_every_frame():
    b = LiveEndpoint("b")
    try:
        with socket.create_connection((b.host, b.port), timeout=5.0) as s:
            s.sendall(struct.pack(">cI", b"M", 7) + b"not xml")
            s.sendall(struct.pack(">cI", b"Z", 1) + b"?")
            # Well-formed XML that no message class accepts must cost
            # one frame, not the loop.
            for body in (b'<status state="BOGUS"/>', b'<migrate dest="d"/>'):
                xml = b'<msg type="status" host="h">' + body + b"</msg>"
                s.sendall(struct.pack(">cI", b"M", len(xml)) + xml)
            s.sendall(frame(Ack(host="x")))
            assert b.recv(timeout=5.0) is not None
        assert (b.frames_in, b.frames_malformed) == (1, 4)
        # An oversized announcement is malformed too, and the last thing
        # read from its connection.
        with socket.create_connection((b.host, b.port), timeout=5.0) as s:
            s.sendall(struct.pack(">cI", b"S", transport.MAX_FRAME_BYTES + 1))
            assert s.recv(1) == b""
        assert (b.frames_in, b.frames_malformed) == (1, 5)
    finally:
        b.close()


def test_a_raising_timer_or_handler_is_counted_and_the_loop_serves_on():
    registry = LiveRegistry(lease=3600.0)
    client = LiveEndpoint("client")
    handle = registry.core.handle

    def flaky(msg, sender):
        if msg.host == "boom":
            raise RuntimeError("handler blew up")
        return handle(msg, sender)

    def explode():
        raise RuntimeError("timer blew up")

    registry.core.handle = flaky
    try:
        registry.endpoint.call_later(0.0, explode)
        assert client.send_message(registry.address, heartbeat("boom"),
                                   time.time())
        assert wait_for(lambda: registry.endpoint.handler_errors == 2)
        assert registry.endpoint._thread.is_alive()
        ingest(client, registry, [heartbeat("after")], window=1)
        assert registry.table.get("after") is not None
    finally:
        client.close()
        registry.stop()


def test_sends_refused_and_reconnects_start_at_zero_and_stay_there():
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    try:
        for _ in range(50):
            assert a.send_message(b.address, Ack(host="a"), timestamp=0.0)
        assert not a.send_message("127.0.0.1:1", Ack(host="a"),
                                  timestamp=0.0)  # unreachable ≠ refused
        assert (a.sends_refused, a.reconnects) == (0, 0)
    finally:
        a.close()
        b.close()


# ------------------------------------------------------------- lifetime
def test_close_returns_every_thread_and_descriptor():
    fds = len(os.listdir("/proc/self/fd"))
    threads = threading.active_count()
    a = LiveEndpoint("a")
    b = LiveEndpoint("b")
    assert a.send_message(b.address, Ack(host="a"), timestamp=0.0)
    assert b.send_message(a.address, Ack(host="b"), timestamp=0.0)
    assert a.recv(timeout=5.0) and b.recv(timeout=5.0)
    a.close()
    b.close()
    assert not a.send_message(b.address, Ack(host="a"), timestamp=0.0)
    assert threading.active_count() == threads
    assert len(os.listdir("/proc/self/fd")) == fds
