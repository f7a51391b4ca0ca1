"""Soft-state host table (paper §3.2).

"The registration of resources is based on a soft-state mechanism,
wherein clients have to regularly update their presence and state
information to the registry/scheduler through the *push* model,
otherwise the registry/scheduler will consider them as *unavailable*."

Records keep registration order, which is what makes "first fit"
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..rules.states import SystemState
from ..trace import get_tracer
from ..trace.events import EV_REGISTRY_EXPIRE
from .hostmatrix import HostStateMatrix

#: State code → member (``record.state`` for a batch of int8 codes).
_STATE_BY_CODE = tuple(SystemState(code) for code in range(len(SystemState)))


@dataclass
class HostRecord:
    """One registered host (or child registry, in a hierarchy)."""

    host: str
    registered_at: float
    static_info: dict = field(default_factory=dict)
    state: SystemState = SystemState.FREE
    metrics: Dict[str, float] = field(default_factory=dict)
    processes: List[dict] = field(default_factory=list)
    last_update: float = 0.0
    updates_received: int = 0
    #: Expiry already traced for the current lease lapse (reset by the
    #: next update, so each lapse produces exactly one trace event).
    expiry_traced: bool = False


class SoftStateTable:
    """Lease-based registration table."""

    def __init__(self, env: Any, lease: float = 35.0):
        if lease <= 0:
            raise ValueError("lease must be positive")
        self.env = env
        self.lease = float(lease)
        self._records: Dict[str, HostRecord] = {}
        #: Records in registration order, maintained incrementally so
        #: the per-query cost is O(1) per record scanned — no list
        #: rebuild from name lookups on every ``records()`` call.
        self._record_list: List[HostRecord] = []
        #: Columnar mirror of the table — row *i* is record *i* — for
        #: the decision plane (docs/decision_plane.md).
        self.matrix = HostStateMatrix()

    # -- mutation ---------------------------------------------------------
    def register(self, host: str, static_info: dict) -> HostRecord:
        """(Re-)register a host; keeps original order on re-register."""
        record = self._records.get(host)
        if record is None:
            record = HostRecord(
                host=host,
                registered_at=self.env.now,
                static_info=dict(static_info),
                last_update=self.env.now,
            )
            self._records[host] = record
            self._record_list.append(record)
            self.matrix.add_row(host, record.static_info, self.env.now)
        else:
            record.static_info = dict(static_info)
            record.last_update = self.env.now
            record.expiry_traced = False
            self.matrix.set_static(host, record.static_info, self.env.now)
        return record

    def update(
        self,
        host: str,
        state: SystemState,
        metrics: Dict[str, float],
        processes: Optional[List[dict]] = None,
    ) -> HostRecord:
        """Fold in a status push; implicitly registers unknown hosts."""
        record = self._records.get(host)
        if record is None:
            record = self.register(host, {})
        record.state = state
        record.metrics = dict(metrics)
        record.processes = list(processes or [])
        record.last_update = self.env.now
        record.updates_received += 1
        record.expiry_traced = False
        self.matrix.set_status(host, state, record.metrics, self.env.now)
        return record

    def push_many(
        self,
        hosts: List[str],
        states: Any,
        columns: Dict[str, Any],
    ) -> None:
        """Fold in a whole batch of status pushes in one call.

        ``hosts``/``states`` are row-aligned (``states`` an int8 code
        array, or a list of members), and ``columns`` maps metric
        names to row-aligned value arrays — the monitor hub's column
        snapshot.  Equivalent to calling :meth:`update` once per host
        (records refreshed, leases renewed, matrix rows rewritten),
        except the matrix takes one fancy-indexed write per column
        and no ``EV_REGISTRY_UPDATE`` trace event is emitted per row —
        batch pushes are sim-internal delivery, not wire messages
        (see ``repro.monitor.hub``).
        """
        now = self.env.now
        names = list(columns.keys())
        cols = [
            np.asarray(columns[name], dtype=float).tolist()
            for name in names
        ]
        codes = np.asarray(states, dtype=np.int8)
        members = [_STATE_BY_CODE[code] for code in codes.tolist()]
        rows = np.empty(len(hosts), dtype=np.intp)
        for i, host in enumerate(hosts):
            record = self._records.get(host)
            if record is None:
                record = self.register(host, {})
            record.state = members[i]
            record.metrics = {
                name: col[i] for name, col in zip(names, cols)
            }
            record.processes = []
            record.last_update = now
            record.updates_received += 1
            record.expiry_traced = False
            rows[i] = self.matrix.row_of(host)
        if len(hosts):
            self.matrix.set_status_rows(rows, codes, columns, now)

    def unregister(self, host: str) -> None:
        record = self._records.pop(host, None)
        if record is not None:
            self._record_list.remove(record)
            self.matrix.remove(host)

    # -- queries --------------------------------------------------------
    def effective_state(self, record: HostRecord) -> SystemState:
        """The record's state, demoted to UNAVAILABLE on lease expiry."""
        if self.env.now - record.last_update > self.lease:
            if not record.expiry_traced:
                record.expiry_traced = True
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        EV_REGISTRY_EXPIRE, t=self.env.now,
                        host=record.host,
                        last_update=record.last_update,
                        lease=self.lease,
                    )
            return SystemState.UNAVAILABLE
        return record.state

    def get(self, host: str) -> Optional[HostRecord]:
        return self._records.get(host)

    def records(self) -> List[HostRecord]:
        """All records in registration order (the first-fit order).

        Returns the table's own incrementally-maintained list; callers
        must treat it as read-only.
        """
        return self._record_list

    def available(self) -> List[HostRecord]:
        """Records whose lease is current."""
        cutoff = self.env.now - self.lease
        unavail = SystemState.UNAVAILABLE
        # Fresh records skip effective_state() entirely; only expired
        # ones take the slow path, which owns the once-per-lapse trace.
        return [
            r for r in self._record_list
            if (r.state is not unavail if r.last_update >= cutoff
                else self.effective_state(r) is not unavail)
        ]

    def free_mask(self) -> np.ndarray:
        """Boolean row mask over :attr:`matrix`: hosts currently in
        the FREE state (migration targets).

        Fresh rows compare their pushed state directly; stale rows
        take the per-record :meth:`effective_state` path, which owns
        the once-per-lapse expiry trace event.
        """
        m = self.matrix
        mask = m.state_codes == int(SystemState.FREE)
        stale = m.last_update < self.env.now - self.lease
        if stale.any():
            for i in np.flatnonzero(stale):
                mask[i] = (self.effective_state(self._record_list[i])
                           is SystemState.FREE)
        return mask

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, host: str) -> bool:
        return host in self._records
