"""Migration phase timing records (the quantities of paper §5.2).

The paper decomposes a migration into: time to notice the overload
(warm-up, outside this record), decision time, initialization of the
destination process (LAM DPM spawn, ~0.3 s), time to reach the nearest
poll-point (~1.4 s), data restoration / resume (<1 s), and total
completion (~7.5 s).  Every migration produces one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MigrationOrder:
    """The command delivered to a migrating process (the 'user
    signal'), destination included."""

    dest_host: str
    issued_at: float
    reason: str = ""
    #: Decision latency measured by the registry/scheduler.
    decision_seconds: float = 0.0


@dataclass
class ReconfigureOrder:
    """The command delivered to a malleable world: grow or shrink.

    ``kind`` is ``"expand"`` (spawn ranks on ``hosts``) or ``"shrink"``
    (retire the rank on the overloaded host; its state merges into a
    surviving peer)."""

    kind: str
    issued_at: float
    #: Expand: destination hosts for the new ranks.  Shrink: the single
    #: host whose rank retires.
    hosts: tuple = ()
    reason: str = ""
    decision_seconds: float = 0.0


@dataclass
class ReconfigRecord:
    """Timing and size breakdown of one N:M world reshape."""

    app: str
    kind: str
    old_size: int
    new_size: int
    reason: str = ""
    ordered_at: float = 0.0
    decision_seconds: float = 0.0
    #: When the last live rank parked at the reshape barrier.
    barrier_at: float = 0.0
    #: When the attempt ended (either way) and the ranks resumed.
    completed_at: float = 0.0
    #: Repartitioned state moved between ranks (pickled size).
    moved_bytes: int = 0
    succeeded: bool = False
    failure: str = ""
    #: Rung name → when the attempt completed it (see ``hpcm.ladder``).
    steps: dict = field(default_factory=dict)

    @property
    def barrier_seconds(self) -> float:
        return self.barrier_at - self.ordered_at

    @property
    def reshape_seconds(self) -> float:
        return self.completed_at - self.barrier_at

    @property
    def total_seconds(self) -> float:
        return self.completed_at - self.ordered_at

    def summary(self) -> dict:
        return {
            "app": self.app,
            "kind": self.kind,
            "old_size": self.old_size,
            "new_size": self.new_size,
            "reason": self.reason,
            "decision_s": self.decision_seconds,
            "barrier_s": self.barrier_seconds,
            "reshape_s": self.reshape_seconds,
            "total_s": self.total_seconds,
            "moved_bytes": self.moved_bytes,
            "succeeded": self.succeeded,
        }


@dataclass
class MigrationRecord:
    """Timing and size breakdown of one migration."""

    source: str
    dest: str
    reason: str = ""
    #: When the commander delivered the order.
    ordered_at: float = 0.0
    #: Registry decision latency (seconds).
    decision_seconds: float = 0.0
    #: When the process reached its poll-point and began migrating.
    pollpoint_at: float = 0.0
    #: When the initialized process was running on the destination.
    spawned_at: float = 0.0
    #: When execution resumed on the destination.
    resumed_at: float = 0.0
    #: When the attempt ended: the last state byte arrived, or it failed.
    completed_at: float = 0.0
    memory_bytes: int = 0
    exec_bytes: int = 0
    succeeded: bool = False
    failure: str = ""
    #: Rung name → when the attempt completed it (see ``hpcm.ladder``).
    steps: dict = field(default_factory=dict)

    # -- derived phase durations (seconds) -------------------------------
    @property
    def time_to_pollpoint(self) -> float:
        return self.pollpoint_at - self.ordered_at

    @property
    def init_seconds(self) -> float:
        return self.spawned_at - self.pollpoint_at

    @property
    def resume_seconds(self) -> float:
        return self.resumed_at - self.spawned_at

    @property
    def drain_seconds(self) -> float:
        """Residual state streamed after execution already resumed."""
        return self.completed_at - self.resumed_at

    @property
    def total_seconds(self) -> float:
        return self.completed_at - self.ordered_at

    def summary(self) -> dict:
        return {
            "source": self.source,
            "dest": self.dest,
            "reason": self.reason,
            "decision_s": self.decision_seconds,
            "to_pollpoint_s": self.time_to_pollpoint,
            "init_s": self.init_seconds,
            "resume_s": self.resume_seconds,
            "drain_s": self.drain_seconds,
            "total_s": self.total_seconds,
            "memory_bytes": self.memory_bytes,
            "succeeded": self.succeeded,
        }
