"""What an uncontended transfer costs, as machine-independent counts.

A transfer is a callback chain — latency timeout, the network's
completion wake-up, ``flow.done`` (the returned event) — not a process.
Max-min filling over no flow builds nothing, and a lone flow's rate is
set in closed form — ``max(min(tx, rx, cap), 0.0)``, the float one
round of progressive filling reaches — so neither builds a dict or a
set.
A CPU carrying a comm load is one processor-sharing server: a submit or
a comm-load change integrates once, re-splits once and re-arms once.
"""

import pytest

from repro.cluster import Cpu, Network
from repro.cluster import network as network_module
from repro.sim import Environment
from repro.sim.events import Timeout

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


def test_a_transfer_dispatches_three_kernel_events():
    """Six with a process per transfer (its start, its end and the
    relay to the result on top of these three), four while the
    returned event was a relay of ``flow.done``."""
    env, net = _coupled_pair()
    seen = []
    env.trace_hook = lambda now, event: seen.append(type(event).__name__)
    _one_transfer(env, net)
    assert seen == ["Timeout", "Timeout", "Event"]


def test_call_count_of_a_transfer():
    """202 calls with a process per transfer and set-building filling,
    119 while the CPU was a wrapper re-splitting its server's rate from
    a hook, 89 as one server; 84 with a lone flow's rate set in closed
    form, 77 with ``flow.done`` returned as the transfer's event."""
    env, net = _coupled_pair()
    _one_transfer(env, net)
    assert count_calls(lambda: _one_transfer(env, net)) <= 77


def _pushed(env, fn):
    """Calls ``fn()`` makes, and the events it leaves on the heap."""
    seq = env._seq
    calls = count_calls(fn)
    return calls, [e for _t, _p, s, e in env._queue if s > seq]


def test_a_coupled_cpu_rearms_once_per_change():
    """A submit on a CPU carrying a comm load made 38 calls and a
    comm-load change 21 while the CPU wrapped a server (integrate, hook,
    re-split, ``set_rate``, integrate again, re-arm, re-arm again); one
    server makes 20 and 10.  The submit brings the next completion
    forward, so it pushes one wake-up; the heavier comm load delays it,
    so the pending wake-up stays and nothing is pushed."""
    env = Environment()
    cpu = Cpu(env)
    cpu.set_comm_load(0.5)
    cpu.execute(100.0)
    env.run(until=1.0)
    calls, pushed = _pushed(env, lambda: cpu.execute(1.0))
    assert calls <= 22
    assert [type(e) for e in pushed] == [Timeout]
    env.run(until=1.5)
    calls, pushed = _pushed(env, lambda: cpu.set_comm_load(1.0))
    assert calls <= 12
    assert pushed == []


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
