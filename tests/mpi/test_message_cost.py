"""What a simulated MPI message costs, in kernel dispatches.

A blocking ``send`` waits out the hop — across hosts the network
transfer (latency timeout, the network's completion wake-up,
``flow.done``), on one host the latency timeout — and then puts the
message into the destination's mailbox.  A put is immediate: it
succeeds the waiting ``recv``'s ``StoreGet`` at once.  While a put was
an event, every message also dispatched a ``StorePut`` before the
receiver's get.  The same sequences as a protocol message
(``tests/protocol/test_transport_cost.py``).
"""

import pytest

from repro.cluster import Cluster
from repro.mpi import MpiRuntime

from .world import launch, run

pytestmark = pytest.mark.costguard


def _dispatches(dest_host):
    """Event types dispatched from rank 0's send to rank 1's receipt,
    with rank 1 already waiting in ``recv``."""
    cluster = Cluster(n_hosts=2, seed=0)
    env = cluster.env
    seen = []

    def entry(ctx):
        if ctx.rank == 0:
            # Past the load sampler's start, 4 s before its first tick.
            yield 1.0
            env.trace_hook = lambda now, event: seen.append(
                type(event).__name__)
            yield from ctx.comm.send("ping", dest=1)
            return None
        data = yield from ctx.comm.recv(source=0)
        env.trace_hook = None
        return data

    _, ranks = launch(MpiRuntime(cluster), entry,
                      [cluster["ws1"], cluster[dest_host]])
    assert run(cluster, ranks) == [None, "ping"]
    return seen


def test_a_message_across_hosts_dispatches_four_kernel_events():
    assert _dispatches("ws2") == ["Timeout", "Timeout", "Event", "StoreGet"]


def test_a_message_on_one_host_dispatches_two_kernel_events():
    assert _dispatches("ws1") == ["Timeout", "StoreGet"]
