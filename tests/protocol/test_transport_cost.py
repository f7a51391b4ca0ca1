"""What a simulated protocol message costs, in kernel dispatches.

A send is a callback chain on its hop event, not a process: across
hosts the hop is the network transfer (latency timeout, the network's
completion wake-up, ``flow.done``), on one host the latency timeout.
Its callback decodes and appends to the inbox, waking the receiver's
``StoreGet``.  With a process per send, a message also dispatched the
process's start and end, the ``StorePut`` into the inbox and the relay
of ``flow.done`` to the transfer's result: eight events across hosts.
"""

import pytest

from repro.cluster import Cluster
from repro.protocol import Ack, Endpoint, EndpointRegistry

pytestmark = pytest.mark.costguard


def _dispatches(dest_host):
    """Event types dispatched from a send to its receipt."""
    cluster = Cluster(n_hosts=2, seed=0)
    directory = EndpointRegistry()
    sender = Endpoint(cluster["ws1"], directory, name="alpha")
    receiver = Endpoint(cluster[dest_host], directory, name="beta")
    env = cluster.env
    # Past the load sampler's start, 4 s before its first tick.
    env.run(until=1.0)
    got = receiver.recv()
    seen = []
    env.trace_hook = lambda now, event: seen.append(type(event).__name__)
    sender.send(receiver.address, Ack(host="ws1"))
    env.run(until=got)
    assert got.value[0] == Ack(host="ws1")
    return seen


def test_a_message_across_hosts_dispatches_four_kernel_events():
    assert _dispatches("ws2") == ["Timeout", "Timeout", "Event", "StoreGet"]


def test_a_message_on_one_host_dispatches_two_kernel_events():
    assert _dispatches("ws1") == ["Timeout", "StoreGet"]
