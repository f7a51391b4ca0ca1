"""Contention soak: the dynamic witness for the C700 static claims.

Many client threads hammer one :class:`LiveRegistry` with concurrent
heartbeats and candidate queries; the assertions are exactly the
properties the concurrency sanitizer argues for statically — no lost
updates, no torn reads, no duplicate or corrupt decision-log entries.
The StatusQuery pull path gets the same treatment on a
:class:`LiveNode`: it holds the sim and live runtimes to answering
the same message.
"""

import os
import threading
import time

from repro.live import LiveEndpoint, LiveNode, LiveRegistry
from repro.protocol import (
    CandidateReply,
    CandidateRequest,
    Register,
    StatusQuery,
    StatusUpdate,
)
from repro.rules.states import SystemState


def wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


HOSTS = 8
UPDATES = 20


def test_concurrent_heartbeats_lose_no_updates():
    registry = LiveRegistry(lease=60.0, command_cooldown=60.0)
    clients = [LiveEndpoint(f"client{i}") for i in range(HOSTS)]
    try:
        def hammer(i):
            client = clients[i]
            host = f"host{i}"
            client.send_message(registry.address,
                                Register(host=host, static_info={}),
                                timestamp=time.time())
            for seq in range(UPDATES):
                client.send_message(
                    registry.address,
                    StatusUpdate(host=host, state=SystemState.FREE,
                                 metrics={"seq": float(seq),
                                          "loadavg1": 0.1}),
                    timestamp=time.time(),
                )
                time.sleep(0.002)  # keep per-host sends ordered

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(HOSTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)

        expected = {f"host{i}" for i in range(HOSTS)}
        assert wait_for(lambda: {
            r.host for r in registry.table.records()
        } >= expected)
        # Every host's final sequence number survived the stampede
        # (>= UPDATES-2 tolerates one in-flight tail reorder across
        # separate TCP connections — never a *lost* fold).
        for record in registry.table.records():
            assert record.metrics["seq"] >= UPDATES - 2, record.host
        # Nothing was overloaded: a corrupted fold would surface here.
        assert registry.decisions == []
    finally:
        for client in clients:
            client.close()
        registry.stop()


def test_concurrent_candidate_queries_each_get_their_reply():
    registry = LiveRegistry(lease=60.0, command_cooldown=60.0)
    feeder = LiveEndpoint("feeder")
    askers = [LiveEndpoint(f"asker{i}") for i in range(3)]
    try:
        feeder.send_message(
            registry.address,
            StatusUpdate(host="calm", state=SystemState.FREE,
                         metrics={"loadavg1": 0.1}),
            timestamp=time.time(),
        )
        assert wait_for(lambda: any(
            r.host == "calm" for r in registry.table.records()
        ))

        replies = {}
        lock = threading.Lock()

        def ask(i):
            client = askers[i]
            for n in range(5):
                req_id = f"q{i}-{n}"
                client.send_message(
                    registry.address,
                    CandidateRequest(host=f"src{i}", req_id=req_id),
                    timestamp=time.time(),
                )
                item = client.recv(timeout=10.0)
                if item is None:
                    continue
                _, (msg, _, _) = item
                with lock:
                    replies[req_id] = msg

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(len(askers))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)

        assert len(replies) == 15
        for req_id, msg in replies.items():
            assert isinstance(msg, CandidateReply)
            assert msg.req_id == req_id  # correlation survived races
            assert msg.dest == "calm"
    finally:
        feeder.close()
        for client in askers:
            client.close()
        registry.stop()


def test_concurrent_overload_yields_exactly_one_decision():
    registry = LiveRegistry(lease=60.0, command_cooldown=60.0)
    source = LiveEndpoint("loaded")
    feeder = LiveEndpoint("feeder")
    try:
        feeder.send_message(
            registry.address,
            StatusUpdate(host="calm", state=SystemState.FREE,
                         metrics={"loadavg1": 0.1}),
            timestamp=time.time(),
        )
        overloaded = StatusUpdate(
            host=source.address, state=SystemState.OVERLOADED,
            metrics={"loadavg1": 9.0},
            processes=[{
                "pid": 7, "name": "app", "start_time": 0.0,
                "est_completion": 100.0, "data_locality": 0.0,
            }],
        )

        def shout():
            for _ in range(10):
                source.send_message(registry.address, overloaded,
                                    timestamp=time.time())

        threads = [threading.Thread(target=shout) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)

        assert wait_for(lambda: len(registry.decisions) >= 1)
        time.sleep(0.5)  # give a duplicate every chance to appear
        # The cooldown + in-flight guard must collapse 40 concurrent
        # overload reports into one well-formed decision.
        assert len(registry.decisions) == 1
        decision = registry.decisions[0]
        assert decision.source == source.address
        assert decision.dest == "calm"
        assert decision.pid == 7
    finally:
        source.close()
        feeder.close()
        registry.stop()


def test_status_query_pull_path_under_contention():
    # Live nodes answer the registry's pull-model StatusQuery (§3.2)
    # as the sim monitor does (they once dropped it), and the
    # monitor core stays coherent when the periodic push and several
    # concurrent pulls pump it at once (_mon_lock).
    node = LiveNode("n1", registry_address=None, interval=30.0)
    clients = [LiveEndpoint(f"poll{i}") for i in range(4)]
    try:
        updates = []
        lock = threading.Lock()

        def pull(i):
            client = clients[i]
            for _ in range(5):
                client.send_message(node.address,
                                    StatusQuery(host=node.address),
                                    timestamp=time.time())
                item = client.recv(timeout=10.0)
                if item is None:
                    continue
                _, (msg, _, _) = item
                with lock:
                    updates.append(msg)

        threads = [threading.Thread(target=pull, args=(i,))
                   for i in range(len(clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)

        assert len(updates) == 20
        for msg in updates:
            assert isinstance(msg, StatusUpdate)
            assert msg.host == node.address
            assert "loadavg1" in msg.metrics
    finally:
        for client in clients:
            client.close()
        node.stop()


def test_nodes_and_registry_leak_no_thread_and_no_descriptor():
    """4 nodes x 2 000 heartbeats into one registry while clients pull
    ``StatusQuery`` answers from the same nodes; after ``stop()`` the
    process holds the threads and descriptors it started with."""
    threads = threading.active_count()
    fds = len(os.listdir("/proc/self/fd"))
    registry = LiveRegistry(lease=60.0)
    nodes = [LiveNode(f"n{i}", registry_address=registry.address,
                      interval=0.001) for i in range(4)]
    clients = [LiveEndpoint(f"poll{i}") for i in range(4)]
    pulled = []
    done = threading.Event()

    def pull(client, node):
        while not done.is_set():
            client.send_message(node.address,
                                StatusQuery(host=node.address),
                                timestamp=time.time())
            item = client.recv(timeout=10.0)
            if item is not None:
                pulled.append(item[1][0])
            time.sleep(0.05)  # the heartbeats are the load, not the pulls

    pullers = [threading.Thread(target=pull, args=pair)
               for pair in zip(clients, nodes)]
    try:
        for t in pullers:
            t.start()
        assert wait_for(lambda: len(registry.table.records()) == 4
                        and all(r.updates_received >= 2000
                                for r in registry.table.records()),
                        timeout=60.0)
    finally:
        done.set()
        for t in pullers:
            t.join(timeout=30.0)
        for closing in (*clients, *nodes):
            (closing.close if closing in clients else closing.stop)()
        registry.stop()
    assert not any(t.is_alive() for t in pullers)
    assert pulled and all(isinstance(m, StatusUpdate) for m in pulled)
    assert registry.endpoint.frames_malformed == 0
    assert wait_for(lambda: threading.active_count() == threads)
    assert wait_for(lambda: len(os.listdir("/proc/self/fd")) == fds)
