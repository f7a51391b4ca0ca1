"""Application schemas against the cluster's host classes (``S201``).

Every other S code is the schema's own check
(:meth:`repro.schema.ApplicationSchema.findings`): the loader refuses
its errors and lint reports them.  S201 is the one error the loader
cannot see — whether *some* host can run the application depends on
the cluster, not on the schema — so it is checked here, against the
host classes the lint driver collects from ``*.json`` files bearing a
top-level ``host_classes`` list (see ``examples/configs/cluster.json``).
A schema no configured host class meets produces a process the
registry can never place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..findings import Diagnostic, error
from ..schema import ApplicationSchema


@dataclass(frozen=True)
class HostClass:
    """One class of interchangeable hosts a cluster offers."""

    name: str
    count: int = 1
    cpu_speed: float = 1.0
    mem_bytes: int = 0
    disk_bytes: int = 0
    features: tuple = ()

    @classmethod
    def from_dict(cls, d: dict) -> "HostClass":
        unknown = set(d) - {
            "name", "count", "cpu_speed", "mem_bytes", "disk_bytes",
            "features",
        }
        if unknown:
            raise ValueError(f"unknown host-class keys: {sorted(unknown)}")
        return cls(
            name=str(d.get("name", "unnamed")),
            count=int(d.get("count", 1)),
            cpu_speed=float(d.get("cpu_speed", 1.0)),
            mem_bytes=int(d.get("mem_bytes", 0)),
            disk_bytes=int(d.get("disk_bytes", 0)),
            features=tuple(d.get("features", ())),
        )

    def meets(self, schema: ApplicationSchema) -> bool:
        req = schema.requirements
        return (
            self.cpu_speed >= req.min_cpu_speed
            and self.mem_bytes >= req.min_memory_bytes
            and self.disk_bytes >= req.min_disk_bytes
            and set(req.features) <= set(self.features)
        )


def lint_schema(
    schema: ApplicationSchema,
    host_classes: Sequence[HostClass] = (),
    filename: Optional[str] = None,
) -> List[Diagnostic]:
    """A loaded schema's findings (its warnings) plus S201 against the
    configured host classes."""
    diags = schema.findings()
    if host_classes and not any(hc.meets(schema) for hc in host_classes):
        req = schema.requirements
        diags.append(error(
            "S201",
            f"no configured host class meets the requirements "
            f"(cpu_speed >= {req.min_cpu_speed:g}, memory >= "
            f"{req.min_memory_bytes}, disk >= {req.min_disk_bytes}, "
            f"features {sorted(req.features)}); classes checked: "
            f"{', '.join(hc.name for hc in host_classes)}",
            obj=schema.name or None,
        ))
    return [replace(d, file=filename) for d in diags]
