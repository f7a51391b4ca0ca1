"""Endpoint transport over the simulated network."""

import pytest

from repro.cluster import Cluster, HostDownError
from repro.protocol import (
    Ack,
    Endpoint,
    EndpointRegistry,
    ProtocolError,
    StatusUpdate,
    messages,
)
from repro.rules import SystemState


def setup():
    cluster = Cluster(n_hosts=2, seed=0)
    directory = EndpointRegistry()
    a = Endpoint(cluster["ws1"], directory, name="alpha")
    b = Endpoint(cluster["ws2"], directory, name="beta")
    return cluster, a, b


def test_addresses():
    cluster, a, b = setup()
    assert a.address == "alpha@ws1"
    assert b.address == "beta@ws2"
    assert a.directory.lookup("beta@ws2") is b


def test_duplicate_address_rejected():
    cluster, a, b = setup()
    with pytest.raises(ValueError):
        Endpoint(cluster["ws1"], a.directory, name="alpha")


def test_unknown_address_rejected():
    cluster, a, b = setup()
    with pytest.raises(KeyError):
        a.send("gamma@ws9", Ack(host="ws1"))


def test_send_recv_roundtrip():
    cluster, a, b = setup()
    got = {}

    def receiver(env):
        msg, sender, ts = yield b.recv()
        got["msg"] = msg
        got["sender"] = sender

    cluster.env.process(receiver(cluster.env))
    a.send("beta@ws2", StatusUpdate(host="ws1", state=SystemState.BUSY,
                                    metrics={"loadavg1": 1.5}))
    cluster.run(until=5)
    assert got["msg"].state is SystemState.BUSY
    assert got["msg"].metrics["loadavg1"] == 1.5
    assert got["sender"] == "alpha@ws1"


def test_same_host_delivery():
    cluster, a, b = setup()
    c = Endpoint(cluster["ws1"], a.directory, name="gamma")
    got = {}

    def receiver(env):
        msg, _, _ = yield c.recv()
        got["t"] = env.now

    cluster.env.process(receiver(cluster.env))
    a.send("gamma@ws1", Ack(host="ws1"))
    cluster.run(until=1)
    assert got["t"] < 0.01  # local latency only


def test_byte_accounting():
    cluster, a, b = setup()

    def receiver(env):
        yield b.recv()

    cluster.env.process(receiver(cluster.env))
    a.send("beta@ws2", Ack(host="ws1"))
    cluster.run(until=5)
    assert a.bytes_out > 0
    assert b.bytes_in == a.bytes_out


def test_send_to_down_host_fails_event():
    cluster, a, b = setup()
    cluster["ws2"].crash()
    failures = {}

    def sender(env):
        try:
            yield a.send("beta@ws2", Ack(host="ws1"))
        except ConnectionError:
            failures["caught"] = True

    cluster.env.process(sender(cluster.env))
    cluster.run(until=5)
    assert failures.get("caught")


def test_send_and_forget_swallows_failures():
    cluster, a, b = setup()
    cluster["ws2"].crash()
    a.send_and_forget("beta@ws2", Ack(host="ws1"))
    cluster.run(until=5)  # must not raise
    assert b.bytes_in == 0


def _drain(env, endpoint):
    """Collect every message ``endpoint`` receives, with its time."""
    got = []

    def receiver(env):
        while True:
            msg, _, _ = yield endpoint.recv()
            got.append((msg.host, env.now))

    env.process(receiver(env))
    return got


def test_unwaited_send_to_down_host_raises_out_of_run():
    """Nobody handled the lost message, so the run reports it."""
    cluster, a, b = setup()
    cluster["ws2"].crash()
    a.send("beta@ws2", Ack(host="ws1"))
    with pytest.raises(HostDownError) as info:
        cluster.run(until=5)
    assert info.value.args == ("ws2",)


def test_send_and_forget_loses_a_message_and_delivers_the_next():
    """A report cut off by its receiver's crash is dropped silently;
    once the host is back, the next report arrives."""
    cluster, a, b = setup()
    env = cluster.env
    got = _drain(env, b)
    big = StatusUpdate(host="lost", state=SystemState.BUSY,
                       metrics={f"m{i}": float(i) for i in range(20000)})

    def script(env):
        a.send_and_forget("beta@ws2", big)
        yield env.timeout(0.01)  # mid-transfer: ~0.04 s on the link
        cluster["ws2"].crash()
        cluster["ws2"].recover()
        a.send_and_forget("beta@ws2", Ack(host="next"))

    env.process(script(env))
    cluster.run(until=5)  # must not raise
    assert [host for host, _ in got] == ["next"]
    assert b.bytes_in == len(messages.encode(
        Ack(host="next"), sender="alpha@ws1", timestamp=0.01))


@pytest.mark.parametrize("dest", ["beta@ws2", "gamma@ws1"])
def test_undecodable_bytes_are_a_lost_message(dest, monkeypatch):
    """A ``ProtocolError`` on arrival drops that message inside the
    kernel callback; it is never raised out of the run."""
    cluster, a, b = setup()
    Endpoint(cluster["ws1"], a.directory, name="gamma")
    receiver = a.directory.lookup(dest)
    got = _drain(cluster.env, receiver)
    decode = messages.decode

    def garbled(data):
        if b'host="bad"' in data:
            raise ProtocolError("garbled")
        return decode(data)

    monkeypatch.setattr(messages, "decode", garbled)
    a.send(dest, Ack(host="bad"))
    a.send_and_forget(dest, Ack(host="bad"))
    a.send(dest, Ack(host="good"))
    cluster.run(until=5)
    assert [host for host, _ in got] == ["good"]
    assert receiver.bytes_in == len(messages.encode(
        Ack(host="good"), sender="alpha@ws1", timestamp=0.0))
