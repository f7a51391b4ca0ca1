"""Host model: one workstation of the cluster.

Bundles CPU, memory, disks, process table, NIC attachment and load
average, plus the static description the paper's monitor registers once
(host name, IP, OS, memory size — §3.1).
"""

from __future__ import annotations

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


class Host:
    """A workstation in the simulated cluster."""

    def __init__(
        self,
        env: Any,
        name: str,
        network: Any,
        cpu_speed: float = 1.0,
        memory_bytes: int = 128 * 1024 * 1024,
        swap_bytes: int = 256 * 1024 * 1024,
        bandwidth: Optional[float] = None,
        ip: Optional[str] = None,
        os_name: str = "SunOS 5.8",
        arch: str = "sparc",
        cpu_mhz: float = 500.0,
        features: tuple = (),
        *,
        plane: Any,
    ):
        self.env = env
        self.name = name
        self.network = network
        self.cpu = Cpu(env, speed=cpu_speed, name=f"{name}.cpu")
        self.memory = Memory(memory_bytes, swap_bytes)
        self.disks = DiskSet()
        self.disks.add("/", total=20 * 10**9, used=6 * 10**9)
        self.disks.add("/export/home", total=40 * 10**9, used=10 * 10**9)
        self.procs = ProcessTable(env)
        # The load average is a passive value the cluster's host plane
        # folds in batch.
        self.loadavg = plane.attach(self)
        self.static_info = StaticInfo(
            hostname=name,
            ip=ip or _auto_ip(name),
            os=os_name,
            arch=arch,
            cpu_mhz=cpu_mhz,
            memory_bytes=memory_bytes,
            cpu_speed=cpu_speed,
            features=tuple(features),
        )
        network.add_host(name, cpu=self.cpu, bandwidth=bandwidth)

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
    import zlib

    h = zlib.crc32(name.encode("utf-8"))
    return f"10.{(h >> 16) % 256}.{(h >> 8) % 256}.{h % 254 + 1}"
