"""Every effect in the outbox union is performed by both registry drivers.

The registry core describes its work as effects (``entity/outbox.py``);
the simulation driver (:class:`RegistryScheduler`) and the live driver
(:class:`LiveRegistry`) perform them.  Each driver's dispatch chain ends
in a ``TypeError``, so an effect one driver never learned fails here
instead of vanishing: each case below drives one effect type through a
driver and checks what a probe endpoint receives.
"""

import dataclasses
import queue
import time
import typing

import pytest

from repro.cluster import Cluster
from repro.entity import outbox
from repro.entity.outbox import Deliver, Effect, Query, Send, Spend, Task
from repro.live import LiveEndpoint, LiveRegistry
from repro.protocol import Endpoint, EndpointRegistry
from repro.protocol.messages import Ack, CandidateReply, CandidateRequest
from repro.registry import RegistryScheduler


class SimDriver:
    """A sim registry on ws1 and a probe endpoint on ws2."""

    def __init__(self):
        cluster = Cluster(n_hosts=2, seed=0)
        directory = EndpointRegistry()
        self.env = cluster.env
        self.registry = RegistryScheduler(cluster["ws1"], directory)
        self.probe = Endpoint(cluster["ws2"], directory, name="probe")
        self.inbox = []

        def listen(env):
            while True:
                msg, _, _ = yield self.probe.recv()
                self.inbox.append((env.now, msg))

        self.env.process(listen(self.env))

    def now(self):
        return self.env.now

    def perform(self, effects):
        """What the driver does with the effects ``core.handle`` returns."""
        self.registry._perform(effects)

    def next_message(self):
        """(arrival time, message) of the probe's next message."""
        deadline = self.env.now + 60.0
        while not self.inbox and self.env.now < deadline:
            self.env.run(until=self.env.now + 0.05)
        assert self.inbox, "nothing reached the probe"
        return self.inbox.pop(0)

    def close(self):
        self.registry.stop()


def _each(effects):
    yield from effects


class LiveDriver:
    """A live registry and a probe endpoint over localhost TCP."""

    def __init__(self):
        self.registry = LiveRegistry()
        self.probe = LiveEndpoint("probe")

    def now(self):
        return time.monotonic()

    def perform(self, effects):
        """Advance the effects on the registry's loop thread, as
        ``_on_item`` does, and re-raise what that step raised."""
        outcome = queue.Queue()

        def step():
            try:
                self.registry._advance(_each(effects))
            except Exception as exc:  # handed back to the test thread
                outcome.put(exc)
            else:
                outcome.put(None)

        self.registry.endpoint.call_later(0.0, step)
        error = outcome.get(timeout=10.0)
        if error is not None:
            raise error

    def next_message(self):
        item = self.probe.recv(timeout=10.0)
        assert item is not None, "nothing reached the probe"
        kind, (msg, _sender, _ts) = item
        assert kind == "msg"
        return time.monotonic(), msg

    def close(self):
        self.registry.stop()
        self.probe.close()


@pytest.fixture(params=["sim", "live"])
def driver(request):
    made = SimDriver() if request.param == "sim" else LiveDriver()
    yield made
    made.close()


def _ack(driver, detail):
    return Send(driver.probe.address, Ack(host="core", detail=detail))


def _asker(driver, timeout):
    """A task that queries the probe and reports the reply's ``dest``."""
    reply = yield Query(
        to=driver.probe.address,
        request=CandidateRequest(host="core", req_id="q1"),
        req_id="q1",
        timeout=timeout,
    )
    yield _ack(driver, str(reply.dest if reply is not None else None))


def _send(driver):
    driver.perform([_ack(driver, "sent")])
    _, msg = driver.next_message()
    assert msg == Ack(host="core", detail="sent")


def _task(driver):
    def task():
        yield _ack(driver, "from a task")

    driver.perform([Task(name="probe-task", gen=task())])
    _, msg = driver.next_message()
    assert msg.detail == "from a task"


def _spend(driver):
    def task():
        yield Spend(0.2, label="probe")
        yield _ack(driver, "spent")

    started = driver.now()
    driver.perform([Task(name="spender", gen=task())])
    arrived, msg = driver.next_message()
    assert msg.detail == "spent"
    assert arrived - started >= 0.2


def _query(driver):
    started = driver.now()
    driver.perform([Task(name="asker", gen=_asker(driver, 0.2))])
    _, request = driver.next_message()
    assert isinstance(request, CandidateRequest) and request.req_id == "q1"
    arrived, msg = driver.next_message()
    assert msg.detail == "None"  # the probe never answered
    assert arrived - started >= 0.2


def _deliver(driver):
    started = driver.now()
    driver.perform([Task(name="asker", gen=_asker(driver, 30.0))])
    _, request = driver.next_message()
    assert request.req_id == "q1"
    driver.perform([Deliver(
        req_id="q1", reply=CandidateReply(host="probe", dest="ws9",
                                          req_id="q1"))])
    arrived, msg = driver.next_message()
    assert msg.detail == "ws9"
    assert arrived - started < 30.0


#: One case per effect type; a new effect has no case until one is
#: written here, and its parametrized test fails with ``KeyError``.
CASES = {
    Send: _send,
    Task: _task,
    Spend: _spend,
    Query: _query,
    Deliver: _deliver,
}


@pytest.mark.parametrize("effect", typing.get_args(Effect),
                         ids=lambda effect: effect.__name__)
def test_each_effect_is_performed(driver, effect):
    CASES[effect](driver)


def test_an_unknown_effect_fails_loudly(driver):
    with pytest.raises(TypeError, match="unknown effect"):
        driver.perform([object()])


def test_the_sim_task_pump_rejects_an_unknown_effect():
    driver = SimDriver()

    def task():
        yield object()

    driver.perform([Task(name="stray", gen=task())])
    with pytest.raises(TypeError, match="unknown effect"):
        driver.env.run(until=1.0)


def test_the_union_names_every_effect_dataclass():
    defined = {
        obj for obj in vars(outbox).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == outbox.__name__
    }
    assert set(typing.get_args(Effect)) == defined
