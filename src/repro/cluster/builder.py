"""Convenience builders for experiment clusters."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..sim.kernel import Environment
from ..sim.rng import RngRegistry
from .host import Host, HostSpec, StaticInfo
from .network import ETHERNET_100MBPS, Network
from .plane import HostPlane

#: Default protocol-processing cost: tuned so that a ~7.25 MB/s
#: bidirectional bulk flow yields a ≈0.97 load on a speed-1.0 host —
#: the workstation-2 situation in Table 2 of the paper.
DEFAULT_CPU_PER_BYTE = 6.7e-8


class Cluster:
    """A simulated cluster: environment + network + hosts + RNG."""

    def __init__(
        self,
        n_hosts: int = 2,
        seed: int = 0,
        bandwidth: float = ETHERNET_100MBPS,
        latency: float = 1e-4,
        cpu_per_byte: float = DEFAULT_CPU_PER_BYTE,
        cpu_speed: float = 1.0,
        host_prefix: str = "ws",
        env: Optional[Environment] = None,
    ):
        if n_hosts < 1:
            raise ValueError("need at least one host")
        self.env = env or Environment()
        self.rng = RngRegistry(seed)
        self.network = Network(
            self.env,
            default_bandwidth=bandwidth,
            latency=latency,
            cpu_per_byte=cpu_per_byte,
        )
        # The batched host plane: one periodic fold process for the
        # whole cluster (see repro.cluster.plane).  Its rows, in
        # builder order, are the cluster's host list.
        self.plane = HostPlane(self.env)
        #: The hosts that exist as objects.  Analytic rows join on
        #: first :meth:`host` lookup; until then they are a plane row
        #: and a spec.
        self.hosts: dict[str, Host] = {}
        self._deferred: dict[str, HostSpec] = {}
        for i in range(1, n_hosts + 1):
            self.add_host(f"{host_prefix}{i}", cpu_speed=cpu_speed)

    def add_host(self, name: str, **kwargs: Any) -> Host:
        """Attach an extra host (heterogeneous parameters welcome)."""
        if self.plane.arrays.row_of(name) is not None:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.env, name, self.network, HostSpec(**kwargs),
                    plane=self.plane)
        self.hosts[name] = host
        return host

    def add_analytic_hosts(
        self,
        names: Iterable[str],
        mean_load: Any = 0.0,
        period: Any = 2.0,
        phase: Any = 0.0,
        **kwargs: Any,
    ) -> None:
        """Attach hosts whose background load is modelled in closed
        form by the host plane — no per-host sim processes at all.

        These are the mega-cluster rows: a duty cycle of ``mean_load``
        (on ``mean_load * period`` wall-seconds per ``period``, offset
        by ``phase``; each one value for the batch or one per name)
        contributes to the run queue analytically, so thousands of
        these cost one batched fold per tick, not thousands of events —
        and one batched append to build.  Each is a name, a plane row
        and the batch's one :class:`HostSpec`; a :class:`Host` is built
        the first time someone asks for it (:meth:`host`) — a
        commander, an application launch, a migration destination.
        """
        names = list(names)
        spec = HostSpec(**kwargs)
        self.plane.add_analytic_rows(
            names, mean_load=mean_load, period=period, phase=phase,
            static=spec.idle_sensors(),
        )
        self._deferred.update(dict.fromkeys(names, spec))

    def add_analytic_host(
        self,
        name: str,
        mean_load: float = 0.0,
        period: float = 2.0,
        phase: float = 0.0,
        **kwargs: Any,
    ) -> None:
        """:meth:`add_analytic_hosts` for one name."""
        self.add_analytic_hosts([name], mean_load, period, phase, **kwargs)

    def names(self) -> list:
        """Every host name in builder order (builds no host)."""
        return list(self.plane.arrays.hosts)

    def static_info(self, name: str) -> StaticInfo:
        """A host's registration data (builds no host)."""
        host = self.hosts.get(name)
        if host is not None:
            return host.static_info
        return self._deferred[name].static_info(name)

    def host(self, name: str) -> Host:
        host = self.hosts.get(name)
        if host is None:
            # An analytic row's first use as a place to run something.
            spec = self._deferred.pop(name)
            host = self.hosts[name] = Host(
                self.env, name, self.network, spec, plane=self.plane)
        return host

    def host_list(self) -> list:
        return [self.host(name) for name in self.plane.arrays.hosts]

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def __getitem__(self, name: str) -> Host:
        return self.host(name)

    def __len__(self) -> int:
        return len(self.plane.arrays)

    def __iter__(self):
        return iter(self.host_list())
