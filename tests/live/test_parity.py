"""Sim/live decision parity: one brain, two drivers.

The tentpole guarantee of the entity-core split: feeding the *same*
scripted StatusUpdate sequence to the simulation's RegistryScheduler
(kernel driver) and to the LiveRegistry (thread/socket driver) must
produce the *same* decision list — same victims, same destinations,
same cooldown suppressions, same dest-is-None outcomes — because both
drivers pump the one RegistryCore.
"""

import time

from repro.cluster import Cluster
from repro.core import MetricPredicate, MigrationPolicy
from repro.monitor import ProcessInfo
from repro.protocol import Endpoint, EndpointRegistry, StatusUpdate
from repro.registry import RegistryScheduler
from repro.live import LiveEndpoint, LiveRegistry
from repro.rules import SystemState


def wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def proc(pid, eta, locality=0.0):
    return ProcessInfo(pid=pid, name="app", start_time=0.0,
                       est_completion=eta,
                       data_locality=locality).as_dict()


def make_policy():
    return MigrationPolicy(
        name="parity",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )


#: The scripted sequence, in logical host names.  Each step is
#: (host, state, metrics, processes, barrier) — ``barrier`` is the
#: decision count to wait for before moving on (None = no decision
#: expected from this step).
def script():
    overloaded_procs = [
        proc(101, eta=500.0),
        proc(102, eta=900.0),          # latest ETA → the victim
        proc(103, eta=950.0, locality=0.9),  # too data-local to move
    ]
    return [
        # Populate the table: ws2 eligible, ws3 filtered by the policy.
        ("ws2", SystemState.FREE, {"loadavg1": 0.3}, [], None),
        ("ws3", SystemState.FREE, {"loadavg1": 2.0}, [], None),
        # First overload: decision → ws2, pid 102.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 3.0},
         overloaded_procs, 1),
        # Second overload inside the cooldown: suppressed.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 3.0},
         overloaded_procs, None),
        # Overload with only an immovable process: no decision at all.
        ("ws4", SystemState.OVERLOADED, {"loadavg1": 4.0},
         [proc(201, eta=800.0, locality=0.9)], None),
        # ws2 stops being a destination ...
        ("ws2", SystemState.BUSY, {"loadavg1": 1.8}, [], None),
        # ... so the post-cooldown overload decides dest=None.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 3.0},
         overloaded_procs, 2),
    ]


def normalize(reconfigurations, names):
    """``Reconfigure.key()`` without its free-text reason, with
    runtime-specific addresses mapped back to the logical host names
    (live hosts are socket addresses)."""

    def logical(host):
        return names.get(host, host)

    return [
        (r.effect, logical(r.source), tuple(logical(d) for d in r.dests),
         r.pid, r.escalated)
        for r in reconfigurations
    ]


EXPECTED = [
    ("migrate", "ws1", ("ws2",), 102, False),
    ("migrate", "ws1", (), 102, False),
]


def run_sim():
    """Pump the script through the kernel driver."""
    cluster = Cluster(n_hosts=4, seed=0)
    directory = EndpointRegistry()
    registry = RegistryScheduler(
        cluster["ws4"], directory, policy=make_policy(),
        command_cooldown=1.0,
    )
    fake = Endpoint(cluster["ws1"], directory, name="monitor")
    # A commander inbox so the ws1 command has somewhere to land.
    Endpoint(cluster["ws1"], directory, name="commander")

    def sender(env):
        for host, state, metrics, processes, _ in script():
            yield env.timeout(0.6)
            fake.send_and_forget(
                registry.address,
                StatusUpdate(host=host, state=state, metrics=metrics,
                             processes=processes),
            )

    cluster.env.process(sender(cluster.env))
    cluster.run(until=30)
    return normalize(registry.reconfigurations, {})


def run_live():
    """Pump the same script through the thread/socket driver."""
    registry = LiveRegistry(policy=make_policy(), lease=30.0,
                            command_cooldown=1.0)
    # One real endpoint per logical host, so commands are routable.
    endpoints = {name: LiveEndpoint(name)
                 for name in ("ws1", "ws2", "ws3", "ws4")}
    names = {ep.address: name for name, ep in endpoints.items()}
    sender = endpoints["ws1"]
    try:
        # Same 0.6 s pacing as the sim run: the suppressed overload
        # must land inside the 1.0 s cooldown and the final one past it.
        for host, state, metrics, processes, barrier in script():
            time.sleep(0.6)
            update = StatusUpdate(
                host=endpoints[host].address, state=state,
                metrics=metrics, processes=processes,
            )
            sender.send_message(registry.address, update,
                                timestamp=time.time())
            if barrier is not None:
                assert wait_for(
                    lambda: len(registry.decisions) >= barrier
                ), f"no decision after {host} overload"
        return normalize(registry.reconfigurations, names)
    finally:
        for ep in endpoints.values():
            ep.close()
        registry.stop()


def test_sim_decisions_match_script():
    assert run_sim() == EXPECTED


def test_live_decisions_match_script():
    assert run_live() == EXPECTED


def test_sim_and_live_runtimes_decide_identically():
    """The headline parity assertion: identical decision sequences."""
    assert run_sim() == run_live()


# -- N:M parity: Expand/Shrink flow through both drivers identically ----

def make_malleable_policy():
    return MigrationPolicy(
        name="parity-malleable",
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
        grow_triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        shrink_triggers=(MetricPredicate("loadavg1", ">", 4.0),),
    )


def world_proc(pid, world_size=2):
    return ProcessInfo(
        pid=pid, name="mc_pi", start_time=0.0, est_completion=900.0,
        world_size=world_size, min_world=1, max_world=8,
        efficiency_curve=(1.0, 0.95, 0.9, 0.85),
    ).as_dict()


def reshape_script():
    return [
        ("ws2", SystemState.FREE, {"loadavg1": 0.3}, [], None),
        # ws3 also hosts a rank of the world: the shrink merge peer.
        ("ws3", SystemState.FREE, {"loadavg1": 0.4},
         [world_proc(pid=202)], None),
        # Moderate overload → grow onto the one free host.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 3.0},
         [world_proc(pid=101)], 1),
        # Inside the cooldown: suppressed entirely.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 5.0},
         [world_proc(pid=101)], None),
        # Past the cooldown, severe → shrink onto the ws3 peer.
        ("ws1", SystemState.OVERLOADED, {"loadavg1": 5.0},
         [world_proc(pid=101, world_size=3)], 2),
    ]


RESHAPE_EXPECTED = [
    ("expand", "ws1", ("ws2",), 101, False),
    ("shrink", "ws1", ("ws3",), 101, False),
]


def run_sim_reshapes():
    cluster = Cluster(n_hosts=4, seed=0)
    directory = EndpointRegistry()
    registry = RegistryScheduler(
        cluster["ws4"], directory, policy=make_malleable_policy(),
        command_cooldown=1.0,
    )
    fake = Endpoint(cluster["ws1"], directory, name="monitor")
    Endpoint(cluster["ws1"], directory, name="commander")

    def sender(env):
        for host, state, metrics, processes, _ in reshape_script():
            yield env.timeout(0.6)
            fake.send_and_forget(
                registry.address,
                StatusUpdate(host=host, state=state, metrics=metrics,
                             processes=processes),
            )

    cluster.env.process(sender(cluster.env))
    cluster.run(until=30)
    return normalize(registry.reconfigurations, {})


def run_live_reshapes():
    registry = LiveRegistry(policy=make_malleable_policy(), lease=30.0,
                            command_cooldown=1.0)
    endpoints = {name: LiveEndpoint(name)
                 for name in ("ws1", "ws2", "ws3", "ws4")}
    names = {ep.address: name for name, ep in endpoints.items()}
    sender = endpoints["ws1"]
    try:
        for host, state, metrics, processes, barrier in reshape_script():
            time.sleep(0.6)
            update = StatusUpdate(
                host=endpoints[host].address, state=state,
                metrics=metrics, processes=processes,
            )
            sender.send_message(registry.address, update,
                                timestamp=time.time())
            if barrier is not None:
                assert wait_for(
                    lambda: len(registry.reconfigurations) >= barrier
                ), f"no reshape decision after {host} overload"
        return normalize(registry.reconfigurations, names)
    finally:
        for ep in endpoints.values():
            ep.close()
        registry.stop()


def test_sim_reshape_decisions_match_script():
    assert run_sim_reshapes() == RESHAPE_EXPECTED


def test_live_reshape_decisions_match_script():
    assert run_live_reshapes() == RESHAPE_EXPECTED


def test_sim_and_live_reshape_identically():
    """Expand/Shrink parity: the N:M form of the headline assertion."""
    assert run_sim_reshapes() == run_live_reshapes()
