"""Host model: one workstation of the cluster.

Bundles CPU, memory, disks, process table, NIC attachment and load
average, plus the static description the paper's monitor registers once
(host name, IP, OS, memory size — §3.1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from .cpu import Cpu
from .disk import DiskSet
from .memory import Memory
from .proctable import ProcessTable


@dataclass(frozen=True)
class StaticInfo:
    """One-time registration data (paper §3.1 'static information')."""

    hostname: str
    ip: str
    os: str
    arch: str
    cpu_mhz: float
    memory_bytes: int
    #: Relative compute speed (reference machine = 1.0).
    cpu_speed: float = 1.0
    #: Special capabilities an application schema may require.
    features: tuple = ()
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data = {
            "hostname": self.hostname,
            "ip": self.ip,
            "os": self.os,
            "arch": self.arch,
            "cpu_mhz": self.cpu_mhz,
            "memory_bytes": self.memory_bytes,
            "cpu_speed": self.cpu_speed,
            "features": ",".join(self.features),
        }
        data.update(self.extras)
        return data


#: The mount points every workstation carries: (mount, total, used).
DISKS = (
    ("/", 20 * 10**9, 6 * 10**9),
    ("/export/home", 40 * 10**9, 10 * 10**9),
)
_DISKS_AVAILABLE = sum(total - used for _, total, used in DISKS)


@dataclass(frozen=True)
class HostSpec:
    """What a workstation is built from.

    Enough to *describe* a host — its registration data and the
    memory/disk readings it reports while nothing runs on it — without
    building one: the cluster's analytic rows are a spec until
    something is placed on them.
    """

    cpu_speed: float = 1.0
    memory_bytes: int = 128 * 1024 * 1024
    swap_bytes: int = 256 * 1024 * 1024
    bandwidth: Optional[float] = None
    ip: Optional[str] = None
    os_name: str = "SunOS 5.8"
    arch: str = "sparc"
    cpu_mhz: float = 500.0
    features: tuple = ()

    def static_info(self, name: str) -> StaticInfo:
        return StaticInfo(
            hostname=name,
            ip=self.ip or _auto_ip(name),
            os=self.os_name,
            arch=self.arch,
            cpu_mhz=self.cpu_mhz,
            memory_bytes=self.memory_bytes,
            cpu_speed=self.cpu_speed,
            features=tuple(self.features),
        )

    def idle_sensors(self) -> dict:
        """The memory and disk metrics of a host built from this spec
        on which nothing has allocated or written yet (what its
        ``SensorSuite`` reports; a tier-1 test holds the two equal)."""
        return {
            "mem_avail_bytes": self.memory_bytes,
            "mem_avail_pct": 100.0,
            "vmem_avail_pct": 100.0,
            "disk_avail_bytes": _DISKS_AVAILABLE,
        }


class Host:
    """A workstation in the simulated cluster."""

    def __init__(
        self,
        env: Any,
        name: str,
        network: Any,
        spec: HostSpec = HostSpec(),
        *,
        plane: Any,
    ):
        self.env = env
        self.name = name
        self.network = network
        self.cpu = Cpu(env, speed=spec.cpu_speed, name=f"{name}.cpu")
        self.memory = Memory(spec.memory_bytes, spec.swap_bytes)
        self.disks = DiskSet()
        for mount, total, used in DISKS:
            self.disks.add(mount, total=total, used=used)
        self.procs = ProcessTable(env)
        # The load average is a passive value the cluster's host plane
        # folds in batch.
        self.loadavg = plane.attach(self)
        self.static_info = spec.static_info(name)
        network.add_host(name, cpu=self.cpu, bandwidth=spec.bandwidth)

    # -- convenience views ---------------------------------------------
    @property
    def up(self) -> bool:
        return self.network.host_is_up(self.name)

    def crash(self) -> None:
        """Take the host down (kills its flows; monitors stop updating)."""
        self.network.set_host_up(self.name, False)

    def recover(self) -> None:
        self.network.set_host_up(self.name, True)

    def bytes_sent(self) -> float:
        return self.network.bytes_sent(self.name)

    def bytes_received(self) -> float:
        return self.network.bytes_received(self.name)

    def __repr__(self) -> str:
        return f"<Host {self.name} load={self.loadavg.one:.2f}>"


def _auto_ip(name: str) -> str:
    """Deterministic fake IP derived from the host name.

    Uses CRC32 (not ``hash``, which is salted per interpreter run).
    """
    h = zlib.crc32(name.encode("utf-8"))
    return f"10.{(h >> 16) % 256}.{(h >> 8) % 256}.{h % 254 + 1}"
