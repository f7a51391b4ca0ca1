"""Migration-victim selection.

Paper §4: "we selected a migration-enabled process based on the start
time of the process and the application description information
provided in the application schema ... The registry/scheduler tends to
migrate a process that has the latest completing time to reduce the
possibility of migrating multiple processes."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional


def _parse_curve(raw) -> tuple:
    """An efficiency curve off the wire (``"1.0,0.9"``) or in memory."""
    if isinstance(raw, str):
        return tuple(float(v) for v in raw.split(",") if v)
    return tuple(float(v) for v in raw)


@dataclass(frozen=True)
class ProcessInfo:
    """What a monitor reports about one migration-enabled process."""

    pid: int
    name: str
    start_time: float
    est_completion: float
    #: Schema data-locality weight: heavy local I/O discourages moving.
    data_locality: float = 0.0
    #: Resource requirements from the application schema: a destination
    #: must "own all the resources required" (paper §3.2).
    min_memory_bytes: int = 0
    min_disk_bytes: int = 0
    min_cpu_speed: float = 0.0
    features: tuple = ()
    #: Malleability (world) declaration — all defaults mean "rigid
    #: single process", the paper's shape, and stay off the wire.
    world_size: int = 1
    min_world: int = 1
    max_world: int = 1
    #: Declared parallel efficiency at world sizes 1..len(curve);
    #: empty = undeclared (treated as perfectly scalable).
    efficiency_curve: tuple = ()

    @property
    def malleable(self) -> bool:
        """Can this process's world be reshaped at all?"""
        return self.max_world > max(1, self.min_world) or self.world_size > 1

    def efficiency_at(self, n: int) -> float:
        """Declared parallel efficiency at world size ``n`` (the last
        curve point extends rightward; undeclared curves read 1.0)."""
        if not self.efficiency_curve or n <= 0:
            return 1.0
        return float(self.efficiency_curve[min(n, len(self.efficiency_curve)) - 1])

    def as_dict(self) -> dict:
        return {
            "pid": self.pid,
            "name": self.name,
            "start_time": self.start_time,
            "est_completion": self.est_completion,
            "data_locality": self.data_locality,
            "min_memory_bytes": self.min_memory_bytes,
            "min_disk_bytes": self.min_disk_bytes,
            "min_cpu_speed": self.min_cpu_speed,
            "features": ",".join(self.features),
            "world_size": self.world_size,
            "min_world": self.min_world,
            "max_world": self.max_world,
            "efficiency_curve": ",".join(
                repr(float(v)) for v in self.efficiency_curve
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessInfo":
        raw_features = data.get("features", ())
        if isinstance(raw_features, str):
            features = tuple(f for f in raw_features.split(",") if f)
        else:
            features = tuple(raw_features)
        return cls(
            pid=int(data["pid"]),
            name=str(data["name"]),
            start_time=float(data["start_time"]),
            est_completion=float(data["est_completion"]),
            data_locality=float(data.get("data_locality", 0.0)),
            min_memory_bytes=int(data.get("min_memory_bytes", 0)),
            min_disk_bytes=int(data.get("min_disk_bytes", 0)),
            min_cpu_speed=float(data.get("min_cpu_speed", 0.0)),
            features=features,
            world_size=int(data.get("world_size", 1)),
            min_world=int(data.get("min_world", 1)),
            max_world=int(data.get("max_world", 1)),
            efficiency_curve=_parse_curve(data.get("efficiency_curve", ())),
        )


def select_victim(
    processes: Iterable[dict],
    max_data_locality: float = 1.0,
) -> Optional[ProcessInfo]:
    """Pick the process with the latest estimated completion time,
    straight off the wire dicts of a status report.

    Processes whose data-locality weight exceeds ``max_data_locality``
    are skipped ("if a process involves a lot in a local data access,
    the process is not to be migrated", §5.3).  Ties break toward the
    earlier start time (longer-running first), then the lowest pid,
    then report order, so the choice is deterministic.  One pass; only
    the winner is materialised as a :class:`ProcessInfo`.
    """
    best = best_key = None
    for proc in processes:
        if float(proc.get("data_locality", 0.0)) > max_data_locality:
            continue
        key = (float(proc["est_completion"]),
               -float(proc["start_time"]), -int(proc["pid"]))
        if best_key is None or key > best_key:
            best, best_key = proc, key
    return ProcessInfo.from_dict(best) if best is not None else None


def collect_process_info(host) -> List[ProcessInfo]:
    """Build the report list from a host's process table."""
    infos = []
    for entry in host.procs.migratable():
        runtime = entry.hpcm_runtime
        schema = runtime.schema
        req = schema.requirements
        infos.append(
            ProcessInfo(
                pid=entry.pid,
                name=entry.name,
                start_time=entry.start_time,
                est_completion=runtime.estimated_completion(),
                data_locality=schema.data_locality,
                min_memory_bytes=req.min_memory_bytes,
                min_disk_bytes=req.min_disk_bytes,
                min_cpu_speed=req.min_cpu_speed,
                features=tuple(req.features),
                # A rigid world reports the rigid default, which stays
                # off the wire.
                world_size=(runtime.world.size if schema.malleable else 1),
                min_world=schema.min_world,
                max_world=schema.max_world,
                efficiency_curve=schema.efficiency_curve,
            )
        )
    return infos
