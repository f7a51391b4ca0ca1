"""The hand-built scenarios behind the design-choice ablations.

Each ablation in EXPERIMENTS.md varies one knob the paper calls out
(monitoring interval, warm-up window, destination strategy, push or
pull, central or hierarchical registry, soft-state lease, poll-point
density, pre-initialization) on one of three set-ups:

* :func:`run_overload` — a test_tree app on ws1 that additional tasks
  overload at ``inject_at``; the rescheduler moves it;
* :func:`run_orders` — the app without a rescheduler, migrated by
  direct HPCM orders every 5 s;
* :func:`run_lease` — an idle cluster whose ws2 crashes at t = 300 s,
  timed until the registry stops offering it.

Keyword arguments a scenario does not name itself are
:class:`~repro.core.rescheduler.ReschedulerConfig` fields, except
``strategy``: the name in :data:`~repro.registry.strategies.STRATEGIES`
that the policy selects destinations with.
Every scenario returns a JSON-safe summary.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from ..cluster import Cluster
from ..cluster.background import CpuHog, DutyCycleLoad
from ..core.policy import policy_2
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..findings import CellArgumentError
from ..hpcm import MigrationOrder, launch
from ..mpi import MpiRuntime
from ..protocol import EndpointRegistry
from ..rules.states import SystemState
from ..workloads.test_tree import TestTreeApp

#: The default test_tree apps of :func:`run_overload` and :func:`run_orders`.
OVERLOAD_PARAMS = {"levels": 10, "trees": 150, "node_cost": 4e-4, "seed": 5}
ORDER_PARAMS = {"levels": 12, "trees": 40, "node_cost": 2e-4, "seed": 3}


def _deploy(cluster: Cluster, domains: int, knobs: Dict[str, Any]) -> list:
    """One central rescheduler, or a parent registry over ``domains``
    equal domains; the app's rescheduler comes first."""
    knobs = dict(knobs)
    policy = replace(policy_2(), strategy=knobs.pop("strategy", "first_fit"))

    def deploy(**where: Any) -> Rescheduler:
        return Rescheduler(cluster, policy=policy,
                           config=ReschedulerConfig(**knobs), **where)

    if domains == 1:
        return [deploy()]
    names = cluster.names()
    size = len(names) // domains
    directory = EndpointRegistry()
    parent = deploy(
        monitored_hosts=[],  # the parent only coordinates registries
        registry_host=names[0], registry_name="registry-parent",
        directory=directory,
    )
    return [
        deploy(
            monitored_hosts=names[start:start + size],
            registry_host=names[start], directory=directory,
            parent_address=parent.registry.address,
        )
        for start in range(0, size * domains, size)
    ] + [parent]


def run_overload(
    seed: int = 0,
    hosts: int = 3,
    params: Optional[dict] = None,
    inject_at: float = 60.0,
    spike: Optional[float] = None,
    domains: int = 1,
    background: Optional[Dict[str, float]] = None,
    **knobs: Any,
) -> Dict[str, Any]:
    """Overload the app's host with four CPU hogs at ``inject_at`` and
    run until the app is done.

    ``spike`` stops the hogs after that many seconds.  ``background``
    gives hosts a duty-cycle load of that mean.  With ``domains`` > 1
    the hogs take the app's whole domain, so the destination has to be
    found in another one by escalation.
    """
    cluster = Cluster(n_hosts=hosts, seed=seed)
    for name, load in (background or {}).items():
        # Stream "l2" for ws2: the names the destination ablation drew.
        DutyCycleLoad(cluster[name], mean_load=load, period=0.5, jitter=0.4,
                      rng=cluster.rng.stream("l" + name.removeprefix("ws")),
                      name=f"{name}-load")
    tiers = _deploy(cluster, domains, knobs)
    app = tiers[0].launch_app(TestTreeApp(), "ws1",
                              params=params or OVERLOAD_PARAMS)
    victims = cluster.names()[:hosts // domains] if domains > 1 else ["ws1"]

    def inject(env):
        yield env.timeout(inject_at)
        hogs = [CpuHog(cluster[name], count=4, name="load")
                for name in victims]
        if spike is not None:
            yield env.timeout(spike)
            for hog in hogs:
                hog.stop()

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    total = app.finished_at
    decision = next((d for d in tiers[0].decisions if d.dest), None)
    return {
        "total_s": total,
        "dest": app.host.name,
        "migrations": app.migration_count,
        "reaction_s": decision.at - inject_at if decision else None,
        "escalated": any(d.escalated for d in tiers[0].decisions if d.dest),
        "registry_in_bps": max(rs.registry.endpoint.bytes_in
                               for rs in tiers) / total,
        "registry_out_bps": max(rs.registry.endpoint.bytes_out
                                for rs in tiers) / total,
    }


def run_orders(
    seed: int = 0,
    hosts: int = 2,
    params: Optional[dict] = None,
    orders: int = 1,
    preinit: bool = False,
) -> Dict[str, Any]:
    """Order ``orders`` migrations of an app on ws1, one every 5 s,
    round-robin over the other hosts, and run until it is done.

    ``preinit`` first warms a standby process on the first
    destination.  Phase times are means over the successful
    migrations.
    """
    if hosts < 2:
        raise CellArgumentError("the order experiment needs hosts >= 2")
    cluster = Cluster(n_hosts=hosts, seed=seed)
    rt = launch(MpiRuntime(cluster), TestTreeApp(), cluster["ws1"],
                params=params or ORDER_PARAMS)
    dests = cluster.names()[1:]

    def scenario(env):
        if preinit:
            yield rt.preinitialize(cluster[dests[0]])
        for i in range(orders):
            yield env.timeout(5.0)
            if rt.status == "done":
                return
            rt.request_migration(
                MigrationOrder(dest_host=dests[i % len(dests)],
                               issued_at=env.now))

    cluster.env.process(scenario(cluster.env))
    cluster.env.run(until=rt.done)
    done = [m for m in rt.migrations if m.succeeded]

    def mean(values):
        return sum(values) / len(values) if values else None

    return {
        "finished_s": rt.finished_at,
        "migrations": len(done),
        "init_s": mean([m.init_seconds for m in done]),
        "to_pollpoint_s": mean([m.time_to_pollpoint for m in done]),
        "total_s": mean([m.total_seconds for m in done]),
    }


def run_lease(seed: int = 0, **knobs: Any) -> Dict[str, Any]:
    """Crash ws2 of an idle 3-host cluster at t = 300 s; the seconds
    until its soft state turns unavailable (sampled every second, for
    at most 600 s) and the soft-state push rate before the crash."""
    cluster = Cluster(n_hosts=3, seed=seed)
    rs = Rescheduler(cluster, policy=policy_2(),
                     config=ReschedulerConfig(**knobs))
    cluster.run(until=300)
    pushed = rs.registry.endpoint.bytes_in
    cluster["ws2"].crash()
    crash_at = cluster.env.now
    table = rs.registry.table

    def watch(env):
        while True:
            rec = table.get("ws2")
            if (rec is not None and table.effective_state(rec)
                    is SystemState.UNAVAILABLE):
                return env.now - crash_at
            yield env.timeout(1.0)

    detect = cluster.env.process(watch(cluster.env))
    cluster.run(until=crash_at + 600)
    return {"detect_s": detect.value if detect.triggered else None,
            "push_bps": pushed / 300.0}
