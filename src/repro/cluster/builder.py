"""Convenience builders for experiment clusters."""

from __future__ import annotations

from typing import Any, Optional

from ..sim.kernel import Environment
from ..sim.rng import RngRegistry
from .host import Host
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
        # whole cluster (see repro.cluster.plane).
        self.plane = HostPlane(self.env)
        self.hosts: dict[str, Host] = {}
        for i in range(1, n_hosts + 1):
            self.add_host(f"{host_prefix}{i}", cpu_speed=cpu_speed)

    def add_host(self, name: str, **kwargs: Any) -> Host:
        """Attach an extra host (heterogeneous parameters welcome)."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.env, name, self.network, plane=self.plane,
                    **kwargs)
        self.hosts[name] = host
        return host

    def add_analytic_host(
        self,
        name: str,
        mean_load: float = 0.0,
        period: float = 2.0,
        phase: float = 0.0,
        **kwargs: Any,
    ) -> Host:
        """Attach a host whose background load is modelled in closed
        form by the host plane — no per-host sim processes at all.

        This is the mega-cluster row: a duty cycle of ``mean_load``
        (on ``mean_load * period`` wall-seconds per ``period``, offset
        by ``phase``) contributes to the run queue analytically, so
        thousands of these cost one batched fold per tick, not
        thousands of events.
        """
        host = self.add_host(name, **kwargs)
        self.plane.set_analytic(
            name, mean_load=mean_load, period=period, phase=phase
        )
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def host_list(self) -> list:
        return list(self.hosts.values())

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def __getitem__(self, name: str) -> Host:
        return self.hosts[name]

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts.values())
