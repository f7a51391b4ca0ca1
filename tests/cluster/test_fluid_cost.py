"""What an uncontended transfer costs, as machine-independent counts.

A transfer is a callback chain — latency timeout, the network's
completion wake-up, ``flow.done``, the returned event — not a process,
and max-min filling over no flow or one flow builds no dict and no set.
"""

import pytest

from repro.cluster import Cpu, Network
from repro.cluster import network as network_module
from repro.sim import Environment

from ..callcount import count_calls

pytestmark = pytest.mark.costguard


def _coupled_pair():
    """Two coupled hosts, one compute job on the source, clock at 1 s."""
    env = Environment()
    net = Network(env, cpu_per_byte=1e-8)
    cpus = {}
    for name in ("a", "b"):
        cpus[name] = Cpu(env, name=name)
        net.add_host(name, cpu=cpus[name])
    cpus["a"].execute(1e6)
    env.run(until=1.0)
    return env, net


def _one_transfer(env, net):
    env.run(until=net.transfer("a", "b", 2000, "nfs"))


def test_a_transfer_dispatches_four_kernel_events():
    """Six with a process per transfer (its start, its end and the
    relay to the result on top of these four)."""
    env, net = _coupled_pair()
    seen = []
    env.trace_hook = lambda now, event: seen.append(type(event).__name__)
    _one_transfer(env, net)
    assert seen == ["Timeout", "Timeout", "Event", "Event"]


def test_call_count_of_a_transfer():
    """202 calls with a process per transfer and set-building filling."""
    env, net = _coupled_pair()
    _one_transfer(env, net)
    assert count_calls(lambda: _one_transfer(env, net)) <= 135


def _refuse(*args, **kwargs):
    raise AssertionError("a dict or set built for a lone flow")


@pytest.mark.parametrize("coupled", [False, True])
def test_filling_zero_or_one_flow_builds_no_dict_or_set(
        coupled, monkeypatch):
    env = Environment()
    net = Network(env, cpu_per_byte=1e-8 if coupled else 0.0)
    for name in ("a", "b"):
        net.add_host(name, cpu=Cpu(env, name=name))
    for name in ("dict", "set", "frozenset"):
        monkeypatch.setattr(network_module, name, _refuse, raising=False)
    net._recompute()                      # no flow
    flow = net.open_stream("a", "b")      # one flow
    assert flow.rate == net.default_bandwidth
    net.close_stream(flow)                # none again
    assert net.active_flows() == []
