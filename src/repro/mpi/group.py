"""Communicator group: the shared rank → process mapping."""

from __future__ import annotations

from typing import Any

from .errors import RankError
from .process import MpiProcess


class CommGroup:
    """Shared state of one communicator.

    Each rank holds a :class:`~repro.mpi.comm.Comm` *handle* onto this
    group.  Migration calls :meth:`replace` to swap the process behind a
    rank — handles and in-flight deliveries resolve ranks at use time,
    so they follow the replacement automatically (the paper's dynamic
    communicator management over MPI-2).
    """

    _next_id = 0

    def __init__(
        self,
        runtime: Any,
        procs: list,
        label: str = "",
        internal: bool = False,
    ):
        CommGroup._next_id += 1
        self.id = CommGroup._next_id
        self.runtime = runtime
        self.procs: list[MpiProcess] = list(procs)
        self.label = label or f"comm{self.id}"
        #: Internal groups (COMM_SELF, migration intercomm bridges) are
        #: skipped when migration re-points a rank at a new process.
        self.internal = internal
        #: Per-process collective sequence counters (part of a process's
        #: execution state; transferred on migration).
        self._coll_seq: dict[int, int] = {}
        for proc in self.procs:
            proc.groups.append(self)

    @property
    def size(self) -> int:
        return len(self.procs)

    def rank_of(self, proc: MpiProcess) -> int:
        try:
            return self.procs.index(proc)
        except ValueError:
            raise RankError(
                f"{proc!r} is not a member of {self.label}"
            ) from None

    def proc_at(self, rank: int) -> MpiProcess:
        if not 0 <= rank < len(self.procs):
            raise RankError(
                f"rank {rank} out of range for {self.label} "
                f"(size {len(self.procs)})"
            )
        return self.procs[rank]

    def contains(self, proc: MpiProcess) -> bool:
        return proc in self.procs

    def next_coll_seq(self, proc: MpiProcess) -> int:
        """Next collective sequence number for ``proc`` in this group."""
        seq = self._coll_seq.get(proc.uid, 0)
        self._coll_seq[proc.uid] = seq + 1
        return seq

    def add(self, proc: MpiProcess) -> int:
        """Append a new member at the highest rank (world growth).

        Existing ranks are untouched, so in-flight deliveries and
        handles stay valid.  Returns the new member's rank.
        """
        if proc in self.procs:
            raise RankError(f"{proc!r} is already a member of {self.label}")
        self.procs.append(proc)
        proc.groups.append(self)
        return len(self.procs) - 1

    def remove(self, proc: MpiProcess) -> int:
        """Drop a member (world shrink); higher ranks shift down by one.

        Only safe at a world-wide barrier with no in-flight messages
        addressed to the departing rank.  Returns the vacated rank.
        """
        rank = self.rank_of(proc)
        self.procs.pop(rank)
        if self in proc.groups:
            proc.groups.remove(self)
        self._coll_seq.pop(proc.uid, None)
        return rank

    def replace(self, old: MpiProcess, new: MpiProcess) -> int:
        """Swap the process behind a rank (migration support).

        Transfers the collective sequence counter; the caller moves the
        mailbox via :meth:`MpiProcess.adopt_state_from`.  Returns the
        rank that was replaced.
        """
        rank = self.rank_of(old)
        self.procs[rank] = new
        if self not in new.groups:
            new.groups.append(self)
        if self in old.groups:
            old.groups.remove(self)
        if old.uid in self._coll_seq:
            self._coll_seq[new.uid] = self._coll_seq.pop(old.uid)
        return rank
