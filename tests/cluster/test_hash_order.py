"""The fluid model's dispatch order does not depend on string hashing.

When a recompute changes the comm load of several CPUs at once, each
re-arms its completion wake-up, and the kernel breaks the same-instant
tie between those wake-ups by the order they were pushed.  That order
has to be the order of the flows, not the iteration order of a set of
host names — which ``PYTHONHASHSEED`` picks per interpreter.
"""

import os
import subprocess
import sys

HOSTS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def dispatch_digest():
    """sha256 over ``(now, event type, owner)`` of every dispatch
    (:class:`tests.digests.DispatchDigest` with ``owner``).

    Six identical hosts run one identical job each; three identical
    transfers between disjoint pairs end in one wake-up, so one
    recompute zeroes six comm loads, six CPUs speed up together and
    their six jobs come due at the same instant — in push order.  The
    owner (the name of the object whose bound method the event calls
    first: the CPU's server for a wake-up) is what tells those six
    apart; ``(now, type)`` alone is the same in any order.
    """
    from repro.cluster import Cpu, Network
    from repro.sim import Environment

    from ..digests import DispatchDigest

    env = Environment()
    net = Network(env, default_bandwidth=1e5, latency=0.0,
                  cpu_per_byte=5e-6)
    cpus = [Cpu(env, name=name) for name in HOSTS]
    for cpu in cpus:
        net.add_host(cpu.name, cpu=cpu)
    for src, dst in zip(HOSTS[::2], HOSTS[1::2]):
        net.transfer(src, dst, 1e6)
    # Jobs that start under load are due later than they will be once
    # the load is gone: its end re-arms (pushes) every wake-up.
    env.run(until=1.0)
    for cpu in cpus:
        cpu.execute(50.0)
    digest = DispatchDigest(owner=True)
    loaded = []

    def hook(now, event):
        digest(now, event)
        loaded.append(sum(1 for h in HOSTS
                          if net._ports[h].cpu.comm_load > 0))

    env.trace_hook = hook
    env.run()
    assert max(loaded) == len(HOSTS)  # >= 3 loaded hosts at once
    return digest.hexdigest()


def _digest_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src"), _ROOT, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "from tests.cluster.test_hash_order import dispatch_digest;"
         "print(dispatch_digest())"],
        env=env, cwd=_ROOT, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_dispatch_order_is_the_same_under_two_hash_seeds():
    assert _digest_under(1) == _digest_under(2)
