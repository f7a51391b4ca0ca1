"""Application schema: XML description of a migratable application.

The paper encapsulates "detailed application information, parameters,
and resource requirements ... in an *application schema* in a XML
format" carrying: application characteristics (data / communication /
computing intensive), estimated communication data size, resource
requirements, and estimated execution time on a workstation with
certain computing power.  The schema travels to the destination machine
to initialize the process, and is updated from actual execution
statistics (the paper's self-adjustment hook).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional

from ..findings import Diagnostic, error, refuse_errors, warning

class Characteristics(str, Enum):
    """What dominates the application's resource usage."""

    COMPUTE = "compute-intensive"
    DATA = "data-intensive"
    COMMUNICATION = "communication-intensive"


@dataclass(frozen=True)
class ResourceRequirements:
    """Minimum resources a destination must offer."""

    min_memory_bytes: int = 0
    min_disk_bytes: int = 0
    min_cpu_speed: float = 0.0
    features: tuple = ()  # e.g. ("fpu", "large-pages")

    def to_element(self) -> ET.Element:
        elem = ET.Element("requirements")
        ET.SubElement(elem, "memory").text = str(self.min_memory_bytes)
        ET.SubElement(elem, "disk").text = str(self.min_disk_bytes)
        ET.SubElement(elem, "cpuSpeed").text = repr(self.min_cpu_speed)
        feats = ET.SubElement(elem, "features")
        for feat in self.features:
            ET.SubElement(feats, "feature").text = feat
        return elem

    @classmethod
    def from_element(cls, elem: ET.Element) -> "ResourceRequirements":
        feats = tuple(
            f.text for f in elem.find("features") or [] if f.text
        )
        return cls(
            min_memory_bytes=int(elem.findtext("memory", "0")),
            min_disk_bytes=int(elem.findtext("disk", "0")),
            min_cpu_speed=float(elem.findtext("cpuSpeed", "0")),
            features=feats,
        )


#: Exponential-smoothing factor for execution-statistics feedback.
_SMOOTHING = 0.5


@dataclass(frozen=True)
class ApplicationSchema:
    """One application's schema (immutable; updates return new schemas)."""

    name: str
    characteristics: Characteristics = Characteristics.COMPUTE
    #: Estimated state size moved during a migration (bytes).
    est_comm_bytes: int = 0
    #: Estimated total execution time (seconds) on a reference
    #: workstation of ``reference_speed``.
    est_exec_time: float = 0.0
    reference_speed: float = 1.0
    requirements: ResourceRequirements = field(
        default_factory=ResourceRequirements
    )
    #: Data-locality weight in [0, 1]: 1 means heavily local-I/O-bound
    #: ("if a process involves a lot in a local data access, the process
    #: is not to be migrated", §5.3).
    data_locality: float = 0.0
    #: Number of completed runs folded into the estimates.
    run_count: int = 0
    #: Declared number of poll-points per run (HPCM can only capture
    #: state at poll-points); ``None`` means the schema does not say.
    poll_points: Optional[int] = None
    #: Malleability declaration (docs/malleability.md): the world-size
    #: range this application can repartition across.  The defaults
    #: (1, 1) declare a rigid application — the 2004 paper's shape —
    #: and keep the schema XML byte-identical to its historical form.
    min_world: int = 1
    max_world: int = 1
    #: Declared parallel efficiency at world sizes 1..len(curve); the
    #: last point extends rightward, an empty curve reads as perfectly
    #: scalable.
    efficiency_curve: tuple = ()

    def __post_init__(self):
        if self.est_comm_bytes < 0 or self.est_exec_time < 0:
            raise ValueError("estimates must be non-negative")
        if self.reference_speed <= 0:
            raise ValueError("reference speed must be positive")
        if not 0 <= self.data_locality <= 1:
            raise ValueError("data_locality must lie in [0, 1]")
        if self.poll_points is not None and self.poll_points < 0:
            raise ValueError("poll_points must be non-negative")
        if self.min_world < 1:
            raise ValueError("min_world must be at least 1")
        object.__setattr__(
            self, "efficiency_curve",
            tuple(float(v) for v in self.efficiency_curve),
        )
        refuse_errors(self.findings())

    def findings(self) -> List[Diagnostic]:
        """What the schema gets wrong: S202 zero poll-points (a warning
        when undeclared), S203 (warning) no transfer estimate for a
        migratable app, S205 efficiencies outside (0, 1], S204
        (warning) a rising efficiency curve, S206 inverted world
        bounds."""
        found: List[Diagnostic] = []

        def report(code, message, make=error):
            found.append(make(code, message, obj=self.name or None))

        if self.poll_points == 0:
            report("S202", "schema declares zero poll-points: HPCM can "
                           "never capture state, so the application can "
                           "never migrate")
        elif self.poll_points is None:
            report("S202", "schema does not declare poll-points; add "
                           "<pollPoints> so migratability is auditable",
                   warning)
        elif self.est_comm_bytes == 0:
            report("S203", "undeclared transfer data: the application is "
                           "migratable but estCommBytes is 0, so "
                           "state-transfer cost is unknown to the "
                           "scheduler", warning)
        curve = self.efficiency_curve
        bad = [v for v in curve if not 0.0 < v <= 1.0]
        if bad:
            report("S205", f"efficiency-curve values "
                           f"{[f'{v:g}' for v in bad]} lie outside (0, 1]; "
                           f"parallel efficiency is a fraction of linear "
                           f"speedup")
        elif any(b > a for a, b in zip(curve, curve[1:])):
            report("S204", "parallel-efficiency curve is not "
                           f"non-increasing: {tuple(f'{v:g}' for v in curve)}"
                           " — efficiency that rises with world size "
                           "defeats the registry's min-efficiency guard (it "
                           "would always allow one more grow)", warning)
        if self.min_world > self.max_world:
            report("S206", f"inverted world bounds: minWorld="
                           f"{self.min_world} > maxWorld={self.max_world}, "
                           f"no world size is ever legal")
        return found

    # -- malleability ----------------------------------------------------
    @property
    def malleable(self) -> bool:
        """Can this application's world be reshaped at all?"""
        return self.max_world > self.min_world or self.min_world > 1

    # -- estimates ------------------------------------------------------
    def estimated_time_on(self, cpu_speed: float) -> float:
        """Scale the reference execution time to a host's speed."""
        if cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        return self.est_exec_time * self.reference_speed / cpu_speed

    def estimated_completion(
        self, start_time: float, cpu_speed: float
    ) -> float:
        """Absolute estimated completion time for a started process."""
        return start_time + self.estimated_time_on(cpu_speed)

    # -- feedback ---------------------------------------------------------
    def updated_from_run(
        self,
        actual_exec_time: float,
        cpu_speed: float,
        actual_comm_bytes: Optional[int] = None,
    ) -> "ApplicationSchema":
        """Fold a completed run's statistics into the estimates.

        The paper: the schema "is updated according to the statistics of
        actual executions".  Exponential smoothing keeps old knowledge
        while adapting.
        """
        if actual_exec_time < 0:
            raise ValueError("actual execution time must be non-negative")
        normalized = actual_exec_time * cpu_speed / self.reference_speed
        if self.run_count == 0:
            new_time = normalized
        else:
            new_time = (
                _SMOOTHING * normalized + (1 - _SMOOTHING) * self.est_exec_time
            )
        new_comm = self.est_comm_bytes
        if actual_comm_bytes is not None:
            if self.run_count == 0:
                new_comm = actual_comm_bytes
            else:
                new_comm = int(
                    _SMOOTHING * actual_comm_bytes
                    + (1 - _SMOOTHING) * self.est_comm_bytes
                )
        return replace(
            self,
            est_exec_time=new_time,
            est_comm_bytes=new_comm,
            run_count=self.run_count + 1,
        )

    # -- XML ------------------------------------------------------------
    def to_xml(self) -> str:
        """Serialize to the wire format (ASCII XML, per paper §3.3)."""
        root = ET.Element("applicationSchema")
        ET.SubElement(root, "name").text = self.name
        ET.SubElement(root, "characteristics").text = (
            self.characteristics.value
        )
        ET.SubElement(root, "estCommBytes").text = str(self.est_comm_bytes)
        ET.SubElement(root, "estExecTime").text = repr(self.est_exec_time)
        ET.SubElement(root, "referenceSpeed").text = repr(
            self.reference_speed
        )
        ET.SubElement(root, "dataLocality").text = repr(self.data_locality)
        ET.SubElement(root, "runCount").text = str(self.run_count)
        if self.poll_points is not None:
            ET.SubElement(root, "pollPoints").text = str(self.poll_points)
        # Malleability elements ride only when declared: rigid schemas
        # keep the paper's exact XML bytes.
        if self.min_world != 1:
            ET.SubElement(root, "minWorld").text = str(self.min_world)
        if self.max_world != 1:
            ET.SubElement(root, "maxWorld").text = str(self.max_world)
        if self.efficiency_curve:
            ET.SubElement(root, "efficiencyCurve").text = ",".join(
                repr(v) for v in self.efficiency_curve
            )
        root.append(self.requirements.to_element())
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "ApplicationSchema":
        root = ET.fromstring(text)
        if root.tag != "applicationSchema":
            raise ValueError(f"unexpected root element {root.tag!r}")
        req_elem = root.find("requirements")
        return cls(
            name=root.findtext("name", ""),
            characteristics=Characteristics(
                root.findtext(
                    "characteristics", Characteristics.COMPUTE.value
                )
            ),
            est_comm_bytes=int(root.findtext("estCommBytes", "0")),
            est_exec_time=float(root.findtext("estExecTime", "0")),
            reference_speed=float(root.findtext("referenceSpeed", "1")),
            data_locality=float(root.findtext("dataLocality", "0")),
            run_count=int(root.findtext("runCount", "0")),
            poll_points=(
                int(root.findtext("pollPoints"))
                if root.findtext("pollPoints") is not None
                else None
            ),
            min_world=int(root.findtext("minWorld", "1")),
            max_world=int(root.findtext("maxWorld", "1")),
            efficiency_curve=tuple(
                float(v)
                for v in root.findtext("efficiencyCurve", "").split(",")
                if v
            ),
            requirements=(
                ResourceRequirements.from_element(req_elem)
                if req_elem is not None
                else ResourceRequirements()
            ),
        )
