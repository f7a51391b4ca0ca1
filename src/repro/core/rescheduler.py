"""The rescheduler façade: deploy the whole runtime system on a cluster.

Wires one monitor + one commander per host and a (possibly
hierarchical) registry/scheduler, exactly the Figure 1 topology, and
provides helpers for launching migration-enabled applications under
its management.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Dict, List, Optional

from ..cluster.builder import Cluster
from ..commander.commander import Commander
from ..hpcm.app import MigratableApp
from ..hpcm.runtime import HpcmRuntime
from ..hpcm.world import HpcmWorld, launch as hpcm_launch, launch_world
from ..monitor.hub import MonitorHub
from ..monitor.monitor import DEFAULT_CYCLE_COST, DEFAULT_INTERVAL, Monitor
from ..monitor.selector import collect_process_info
from ..mpi.runtime import MpiRuntime
from ..protocol.transport import EndpointRegistry
from ..registry.registry import (
    DEFAULT_COMMAND_COOLDOWN,
    DEFAULT_LEASE,
    RegistryScheduler,
)
from ..rules.model import RuleSet
from ..trace import get_tracer
from ..trace.events import EV_RESCHEDULER_DEPLOY, EV_RESCHEDULER_STOP
from .policy import MigrationPolicy, policy_1


@dataclass
class ReschedulerConfig:
    """All deployment knobs in one place."""

    #: Monitoring interval in seconds (paper: 10 s).
    interval: float = DEFAULT_INTERVAL
    #: Consecutive overloaded samples required before reporting
    #: overloaded (the warm-up that avoids fault migrations).
    sustain: int = 3
    #: CPU-seconds one monitoring cycle costs.
    cycle_cost: float = DEFAULT_CYCLE_COST
    #: Soft-state lease (seconds without a push → unavailable).
    lease: float = DEFAULT_LEASE
    #: Seconds between repeat migrate commands for one host.
    command_cooldown: float = DEFAULT_COMMAND_COOLDOWN
    #: Write real temp files for destination addresses.
    use_tempfile: bool = False
    #: Extra rule set evaluated by every monitor.
    ruleset: Optional[RuleSet] = None
    #: Per-state monitoring intervals (overrides ``interval``).
    intervals_by_state: Dict = field(default_factory=dict)
    #: Registration model (§3.2): "push" (the paper's soft-state
    #: choice) or "pull" (the registry queries on its own schedule).
    mode: str = "push"


class Rescheduler:
    """Deployed rescheduler runtime on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        policy: Optional[MigrationPolicy] = None,
        config: Optional[ReschedulerConfig] = None,
        registry_host: Optional[str] = None,
        monitored_hosts: Optional[List[str]] = None,
        directory: Optional[EndpointRegistry] = None,
        parent_address: Optional[str] = None,
        mpi: Optional[MpiRuntime] = None,
        registry_name: str = "registry",
    ):
        self.cluster = cluster
        self.env = cluster.env
        # Deployment is where the ambient tracer meets a simulation
        # clock; spans opened by env-free layers stamp correctly from
        # here on.
        tracer = get_tracer()
        if tracer.enabled:
            tracer.bind_clock(lambda: self.env.now)
        self.policy = policy or policy_1()
        self.config = config or ReschedulerConfig()
        self.directory = directory or EndpointRegistry()
        self.mpi = mpi or MpiRuntime(cluster)

        host_names = (
            monitored_hosts if monitored_hosts is not None
            else cluster.names()
        )
        registry_host = registry_host or (
            host_names[0] if host_names else cluster.names()[0]
        )

        self.registry = RegistryScheduler(
            cluster.host(registry_host),
            self.directory,
            name=registry_name,
            lease=self.config.lease,
            policy=self.policy,
            rng=cluster.rng.stream("registry"),
            command_cooldown=self.config.command_cooldown,
            parent_address=parent_address,
            mode=self.config.mode,
            poll_interval=self.config.interval,
        )
        # The paper's first fit scans "the machine list": seed the
        # registry's table in deployment order so the scan order is the
        # configured list, not the race of first Register arrivals.
        self.registry.table.register_many(
            host_names, cluster.static_dicts(host_names))
        # Partition the host list: analytic plane rows are monitored in
        # batch by one MonitorHub; backed hosts get the per-host
        # monitor/commander pair.
        plane = cluster.plane
        rows = plane.arrays.rows_of(host_names)
        analytic = (rows >= 0) & plane.arrays.analytic[rows]
        analytic_names = list(compress(host_names, analytic.tolist()))
        backed_names = list(compress(host_names, (~analytic).tolist()))
        self.hub: Optional[MonitorHub] = None
        if analytic_names:
            self.hub = MonitorHub(
                plane,
                analytic_names,
                endpoint_host=cluster.host(registry_host),
                directory=self.directory,
                registry_address=self.registry.address,
                table=self.registry.table,
                ruleset=self.config.ruleset,
                policy=self.policy,
                interval=self.config.interval,
                intervals_by_state=self.config.intervals_by_state,
                sustain=self.config.sustain,
                cycle_cost=self.config.cycle_cost,
                rng=cluster.rng.stream("monitorhub"),
                processes_for=self._process_reports,
            )
        self.monitors: Dict[str, Monitor] = {}
        self.commanders: Dict[str, Commander] = {}
        for name in backed_names:
            host = cluster.host(name)
            self.monitors[name] = Monitor(
                host,
                self.directory,
                registry_address=self.registry.address,
                ruleset=self.config.ruleset,
                policy=self.policy,
                interval=self.config.interval,
                intervals_by_state=self.config.intervals_by_state,
                sustain=self.config.sustain,
                cycle_cost=self.config.cycle_cost,
                rng=cluster.rng.stream(f"monitor:{name}"),
                mode=self.config.mode,
            )
            self.commanders[name] = Commander(
                host,
                self.directory,
                use_tempfile=self.config.use_tempfile,
            )
        self.apps: List[HpcmRuntime] = []
        self.worlds: List[HpcmWorld] = []
        if tracer.enabled:
            tracer.event(
                EV_RESCHEDULER_DEPLOY, t=self.env.now,
                host=registry_host, hosts=len(host_names),
                policy=getattr(self.policy, "name", ""),
                mode=self.config.mode,
            )

    def _process_reports(self, name: str) -> List[dict]:
        """An analytic row's process report, with the fields a per-host
        monitor would send.  A row nothing was placed on has no
        ``Host`` and runs nothing."""
        host = self.cluster.hosts.get(name)
        if host is None:
            return []
        return [info.as_dict() for info in collect_process_info(host)]

    # -- application management -----------------------------------------
    def launch_app(
        self,
        app: MigratableApp,
        host_name: str,
        params: Optional[dict] = None,
        **kwargs: Any,
    ) -> HpcmRuntime:
        """Start a migration-enabled application under management."""
        runtime = hpcm_launch(
            self.mpi,
            app,
            self.cluster.host(host_name),
            params=params,
            rng=self.cluster.rng.stream(f"app:{app.name}:{len(self.apps)}"),
            **kwargs,
        )
        self.apps.append(runtime)
        return runtime

    def launch_mpi_app(
        self,
        app_factory: Callable[[int], MigratableApp],
        host_names: List[str],
        params: Optional[dict] = None,
        **kwargs: Any,
    ) -> HpcmWorld:
        """Start a multi-rank migration-enabled MPI application.

        With a malleable schema (``schema=app_factory(0).malleable_schema()``)
        the registry may answer overload on a member host with an
        ``ExpandCommand``/``ShrinkCommand`` instead of (or before) a
        1:1 migration; the returned :class:`~repro.hpcm.world.HpcmWorld`
        records every reshape in ``world.reconfigurations``.
        """
        world = launch_world(
            self.mpi,
            app_factory,
            [self.cluster.host(name) for name in host_names],
            params=params,
            rng=self.cluster.rng.stream(f"mpi-app:{len(self.apps)}"),
            **kwargs,
        )
        self.apps.extend(world.runtimes)
        self.worlds.append(world)
        return world

    # -- observability ----------------------------------------------------
    @property
    def decisions(self) -> Sequence:
        return self.registry.decisions

    def migration_records(self) -> list:
        """Of each runtime once: ``apps``, then every rank any world had."""
        runtimes = dict.fromkeys(self.apps)
        for world in self.worlds:
            runtimes.update(dict.fromkeys(world.all_runtimes))
        return [rec for rt in runtimes for rec in rt.migrations]

    def reconfiguration_records(self) -> list:
        """World-side reshape records, across every malleable world."""
        return [rec for world in self.worlds
                for rec in world.reconfigurations]

    def stop(self) -> None:
        """Stop all entities (monitors unregister on their next tick)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(EV_RESCHEDULER_STOP, t=self.env.now,
                         host=self.registry.host.name)
        if self.hub is not None:
            self.hub.stop()
        for monitor in self.monitors.values():
            monitor.stop()
        for commander in self.commanders.values():
            commander.stop()
        self.registry.stop()
