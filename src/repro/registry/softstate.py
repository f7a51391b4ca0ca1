"""Soft-state host table (paper §3.2).

"The registration of resources is based on a soft-state mechanism,
wherein clients have to regularly update their presence and state
information to the registry/scheduler through the *push* model,
otherwise the registry/scheduler will consider them as *unavailable*."

Records keep registration order, which is what makes "first fit"
deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..rules.states import FREE, SystemState
from ..trace import get_tracer
from ..trace.events import EV_REGISTRY_EXPIRE
from .hostmatrix import HostExists, HostRecord, HostStateMatrix

__all__ = ["HostRecord", "SoftStateTable"]


class SoftStateTable:
    """Lease-based registration table: the clock, the lease and the
    expiry trace over a :class:`HostStateMatrix`, which holds the
    data (docs/decision_plane.md)."""

    def __init__(self, env: Any, lease: float = 35.0):
        if lease <= 0:
            raise ValueError("lease must be positive")
        self.env = env
        self.lease = float(lease)
        self.matrix = HostStateMatrix()

    # -- mutation ---------------------------------------------------------
    def register(self, host: str, static_info: dict) -> HostRecord:
        """(Re-)register a host; keeps original order on re-register."""
        matrix = self.matrix
        if host in matrix:
            matrix.set_static(host, static_info, self.env.now)
        else:
            matrix.add_row(host, static_info, self.env.now)
        return matrix.view(host)

    def register_many(self, hosts: List[str],
                      statics: List[dict]) -> None:
        """:meth:`register` for a whole row-aligned batch, appended by
        column.  A batch that names a registered host (or one host
        twice) is refused whole by the matrix and registered host by
        host instead, so a re-registration keeps its row."""
        try:
            self.matrix.add_rows(hosts, statics, self.env.now)
        except HostExists:
            for host, static in zip(hosts, statics):
                self.register(host, static)

    def update(
        self,
        host: str,
        state: SystemState,
        metrics: Dict[str, float],
        processes: Optional[List[dict]] = None,
    ) -> None:
        """Fold in a status push; implicitly registers unknown hosts."""
        matrix = self.matrix
        now = self.env.now
        if host not in matrix:
            matrix.add_row(host, {}, now)
        matrix.set_status(host, state, metrics, now, processes)

    def push_many(
        self,
        hosts: List[str],
        states: Any,
        columns: Dict[str, Any],
        rows: Optional[Tuple[int, np.ndarray]] = None,
    ) -> None:
        """Fold in a whole batch of status pushes in one call.

        ``hosts``/``states`` are row-aligned (``states`` an int8 code
        array, or a list of members), and ``columns`` maps metric
        names to row-aligned value arrays — the monitor hub's column
        snapshot.  Equivalent to calling :meth:`update` once per host
        (leases renewed, rows rewritten), except that it runs no
        per-host Python and no ``EV_REGISTRY_UPDATE`` trace event is
        emitted per row — batch pushes are sim-internal delivery, not
        wire messages (see ``repro.monitor.hub``).
        ``rows``, a ``(matrix.layout, rows of hosts)`` hint, skips the
        name lookup while that layout holds.
        """
        if not len(hosts):
            return
        matrix = self.matrix
        now = self.env.now
        if rows is not None and rows[0] == matrix.layout:
            return matrix.set_status_rows(rows[1], states, columns, now)
        try:
            rows = matrix.rows_of(hosts)
        except KeyError:
            for host in hosts:
                if host not in matrix:
                    matrix.add_row(host, {}, now)
            rows = matrix.rows_of(hosts)
        matrix.set_status_rows(rows, states, columns, now)

    def unregister(self, host: str) -> None:
        self.matrix.remove(host)

    # -- queries --------------------------------------------------------
    def _trace_expiry(self, rows: List[int]) -> None:
        """Mark the current lease lapse of ``rows`` traced: one
        ``EV_REGISTRY_EXPIRE`` each, until their next push."""
        matrix = self.matrix
        matrix.expiry_traced[rows] = True
        tracer = get_tracer()
        if tracer.enabled:
            for row in rows:
                tracer.event(
                    EV_REGISTRY_EXPIRE, t=self.env.now,
                    host=matrix.host_at(row),
                    last_update=float(matrix.last_update[row]),
                    lease=self.lease,
                )

    def _stale(self) -> np.ndarray:
        """Boolean column: rows whose lease has lapsed.  Owns the
        once-per-lapse expiry trace for every column query."""
        matrix = self.matrix
        stale = self.env.now - matrix.last_update > self.lease
        if stale.any():
            lapsed = np.flatnonzero(stale & ~matrix.expiry_traced)
            if lapsed.size:
                self._trace_expiry(lapsed.tolist())
        return stale

    def effective_state(self, record: HostRecord) -> SystemState:
        """The record's state, demoted to UNAVAILABLE on lease expiry."""
        matrix = self.matrix
        row = matrix.row_of(record.host)
        if self.env.now - matrix.last_update[row] > self.lease:
            if not matrix.expiry_traced[row]:
                self._trace_expiry([row])
            return SystemState.UNAVAILABLE
        return record.state

    def get(self, host: str) -> Optional[HostRecord]:
        return self.matrix.view(host)

    def records(self) -> List[HostRecord]:
        """All records in registration order (the first-fit order).

        Returns the table's own list of row views (it changes only
        when the row set does); callers must treat it as read-only.
        """
        return self.matrix.views()

    def available_mask(self) -> np.ndarray:
        """Boolean row mask over :attr:`matrix`: hosts whose lease is
        current (and that did not report themselves UNAVAILABLE)."""
        return (self.matrix.state_codes != SystemState.UNAVAILABLE) & ~self._stale()

    def available(self) -> List[HostRecord]:
        """Records whose lease is current."""
        records = self.records()
        return [records[row]
                for row in np.flatnonzero(self.available_mask()).tolist()]

    def free_mask(self) -> np.ndarray:
        """Boolean row mask over :attr:`matrix`: hosts currently in
        the FREE state (migration targets), lease expiry applied."""
        return (self.matrix.state_codes == FREE) & ~self._stale()

    def __len__(self) -> int:
        return len(self.matrix)

    def __contains__(self, host: str) -> bool:
        return host in self.matrix
