"""The host-state matrix: the registry's state, one row per host.

The soft-state table keeps ``HostRecord`` objects; this module keeps
the *same* information as a set of numpy columns — one row per
registered host, in registration order (the paper's "machine list"
order that makes first fit deterministic) — so the decision plane
evaluates **all hosts at once**: policy destination conditions are
column comparisons, destination selection is a strategy over the
resulting row mask (:mod:`repro.registry.strategies`), and rule sets
compile to column evaluators (:mod:`repro.rules.vector`).

The full column contract (name, dtype, units, invalidation trigger)
is documented in ``docs/decision_plane.md``.  In short:

* **Status columns** (``state``, ``last_update`` and one float64 column
  per metric in :data:`METRIC_COLUMNS`) are written *in place* on every
  soft-state push — views over them are always current and never
  rebuilt.
* **Membership caches** (the lexsort-able host-name array and the
  registry-record mask) are invalidated only when the *row set*
  changes (register/unregister), exactly like the
  :class:`~repro.metrics.timeseries.TimeSeries` array views are
  invalidated on append — status pushes, the hot path, never touch
  them.

Missing data is ``NaN``: a predicate over an unreported metric is
*false* (``NaN`` fails every numpy comparison), while a *static* field
a record never declared does not disqualify it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..rules.states import SystemState
from ..rules.vocabulary import (
    METRICS as METRIC_COLUMNS,  # the matrix's metric columns, in order
    script_metric,
)

_COL_INDEX = {name: j for j, name in enumerate(METRIC_COLUMNS)}


def _parse_features(static: dict) -> Optional[frozenset]:
    """The record's offered feature set, or ``None`` when undeclared
    (undeclared static fields are not held against a candidate)."""
    raw = static.get("features")
    if raw is None:
        return None
    return frozenset(f for f in str(raw).split(",") if f)


class HostStateMatrix:
    """Columnar mirror of a soft-state table, row ``i`` = record ``i``.

    Owned and kept current by
    :class:`~repro.registry.softstate.SoftStateTable`; everyone else
    treats the columns as read-only views.
    """

    def __init__(self, capacity: int = 16):
        capacity = max(1, int(capacity))
        self._n = 0
        self._hosts: List[str] = []
        self._index: Dict[str, int] = {}
        #: Per-row offered feature sets (``None`` = undeclared).
        self._features: List[Optional[frozenset]] = []
        self._state = np.zeros(capacity, dtype=np.int8)
        self._last_update = np.zeros(capacity, dtype=np.float64)
        self._cpu_speed = np.full(capacity, np.nan)
        self._metrics = np.full((capacity, len(METRIC_COLUMNS)), np.nan)
        # Membership caches (rebuilt lazily after row-set changes).
        self._hosts_arr: Optional[np.ndarray] = None
        self._registry_mask: Optional[np.ndarray] = None

    # -- shape ------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def row_of(self, host: str) -> Optional[int]:
        return self._index.get(host)

    def host_at(self, row: int) -> str:
        return self._hosts[row]

    # -- mutation (called by SoftStateTable only) -------------------------
    def _grow(self) -> None:
        cap = max(1, self._state.shape[0]) * 2
        self._state = np.resize(self._state, cap)
        self._last_update = np.resize(self._last_update, cap)
        cpu = np.full(cap, np.nan)
        cpu[: self._n] = self._cpu_speed[: self._n]
        self._cpu_speed = cpu
        metrics = np.full((cap, len(METRIC_COLUMNS)), np.nan)
        metrics[: self._n] = self._metrics[: self._n]
        self._metrics = metrics

    def add_row(self, host: str, static: dict, now: float) -> int:
        """Append a newly-registered host; returns its row."""
        if host in self._index:
            raise ValueError(f"host {host!r} already has a row")
        if self._n == self._state.shape[0]:
            self._grow()
        row = self._n
        self._n += 1
        self._hosts.append(host)
        self._index[host] = row
        self._features.append(_parse_features(static))
        self._state[row] = int(SystemState.FREE)
        self._last_update[row] = float(now)
        self._cpu_speed[row] = self._static_speed(static)
        self._metrics[row, :] = np.nan
        self._hosts_arr = None
        self._registry_mask = None
        return row

    @staticmethod
    def _static_speed(static: dict) -> float:
        speed = static.get("cpu_speed")
        return float(speed) if speed is not None else np.nan

    def set_static(self, host: str, static: dict, now: float) -> None:
        """Refresh a re-registering host's static info + lease."""
        row = self._index[host]
        self._features[row] = _parse_features(static)
        self._cpu_speed[row] = self._static_speed(static)
        self._last_update[row] = float(now)

    def set_status(self, host: str, state: SystemState,
                   metrics: Dict[str, float], now: float) -> None:
        """Fold in one status push (the hot path: in-place writes)."""
        row = self._index[host]
        self._state[row] = int(state)
        self._last_update[row] = float(now)
        self._metrics[row, :] = np.nan
        for name, value in metrics.items():
            j = _COL_INDEX.get(name)
            if j is not None and value is not None:
                self._metrics[row, j] = float(value)

    def set_status_rows(
        self,
        rows: np.ndarray,
        codes: np.ndarray,
        columns: Dict[str, np.ndarray],
        now: float,
    ) -> None:
        """Fold in a whole *batch* of status pushes at once.

        ``rows`` are matrix row indices, ``codes`` the row-aligned int
        :class:`SystemState` codes, and ``columns`` maps metric names
        to row-aligned value arrays — the monitor hub's column
        snapshot lands here without ever materialising per-host dicts.
        Unknown metric names are ignored, exactly like
        :meth:`set_status`.
        """
        rows = np.asarray(rows, dtype=np.intp)
        self._state[rows] = np.asarray(codes, dtype=np.int8)
        self._last_update[rows] = float(now)
        self._metrics[rows, :] = np.nan
        for name, values in columns.items():
            j = _COL_INDEX.get(name)
            if j is not None:
                self._metrics[rows, j] = np.asarray(values, dtype=float)

    def remove(self, host: str) -> None:
        """Drop a row, compacting so row order stays registration
        order (rare: unregister only)."""
        row = self._index.pop(host, None)
        if row is None:
            return
        n = self._n
        self._hosts.pop(row)
        self._features.pop(row)
        if row < n - 1:
            self._state[row:n - 1] = self._state[row + 1:n]
            self._last_update[row:n - 1] = self._last_update[row + 1:n]
            self._cpu_speed[row:n - 1] = self._cpu_speed[row + 1:n]
            self._metrics[row:n - 1] = self._metrics[row + 1:n]
            for h in self._hosts[row:]:
                self._index[h] -= 1
        self._n = n - 1
        self._hosts_arr = None
        self._registry_mask = None

    # -- column views -----------------------------------------------------
    @property
    def state_codes(self) -> np.ndarray:
        """int8 :class:`SystemState` codes as last pushed (lease
        freshness is *not* applied here — see ``free_mask``)."""
        return self._state[: self._n]

    @property
    def last_update(self) -> np.ndarray:
        """float64 clock seconds of each row's last register/push."""
        return self._last_update[: self._n]

    @property
    def cpu_speed(self) -> np.ndarray:
        """float64 static CPU speed; NaN = undeclared."""
        return self._cpu_speed[: self._n]

    def metric_column(self, name: str) -> np.ndarray:
        """float64 view of one metric column; NaN = unreported.

        Raises ``KeyError`` for names outside :data:`METRIC_COLUMNS`.
        """
        return self._metrics[: self._n, _COL_INDEX[name]]

    def get(self, name: str, default: Any = None) -> Any:
        """The mapping-of-columns read ``MetricPredicate.holds`` makes:
        :meth:`metric_column`, ``default`` for names outside
        :data:`METRIC_COLUMNS`."""
        j = _COL_INDEX.get(name)
        return default if j is None else self._metrics[: self._n, j]

    def features_at(self, row: int) -> Optional[frozenset]:
        return self._features[row]

    @property
    def hosts_array(self) -> np.ndarray:
        """Host names as a numpy unicode array (for lexsort
        tie-breaks); cached until the row set changes."""
        arr = self._hosts_arr
        if arr is None or arr.shape[0] != self._n:
            arr = self._hosts_arr = np.array(self._hosts, dtype=str)
        return arr

    @property
    def registry_mask(self) -> np.ndarray:
        """True where the record is a child registry (``"@" in host``);
        cached until the row set changes."""
        mask = self._registry_mask
        if mask is None or mask.shape[0] != self._n:
            mask = self._registry_mask = np.fromiter(
                ("@" in h for h in self._hosts), dtype=bool,
                count=self._n,
            )
        return mask


# -------------------------------------------------------- mask builders
def exclude_rows(matrix: HostStateMatrix, mask: np.ndarray,
                 exclude) -> np.ndarray:
    """Clear the rows of every excluded host present in the matrix."""
    for host in exclude:
        row = matrix.row_of(host)
        if row is not None:
            mask[row] = False
    return mask


def dest_mask(matrix: HostStateMatrix, policy: Any) -> np.ndarray:
    """Policy destination conditions (paper §5.3) as one boolean
    column: a disabled/absent policy accepts everyone; otherwise *all*
    predicates must hold, and an unreported metric (NaN) fails its
    predicate.
    """
    n = matrix.n
    mask = np.ones(n, dtype=bool)
    if policy is None or not getattr(policy, "enabled", True):
        return mask
    for cond in getattr(policy, "dest_conditions", ()):
        mask &= cond.holds(matrix)
    return mask


def requirements_mask(matrix: HostStateMatrix, req: Any) -> np.ndarray:
    """Victim resource requirements as one boolean column: does the
    candidate own all the resources the victim needs?

    ``req`` duck-types ResourceRequirements / ProcessInfo
    (min_memory_bytes, min_disk_bytes, min_cpu_speed, features).
    Undeclared *static* fields (cpu_speed, features — e.g. a delegated
    child registry's) are not held against a record; missing *dynamic*
    metrics fail a positive requirement — 'ready and owns all the
    resources required' is checked, not assumed.
    """
    n = matrix.n
    mask = np.ones(n, dtype=bool)
    if req is None:
        return mask
    min_speed = float(getattr(req, "min_cpu_speed", 0.0) or 0.0)
    if min_speed:
        cpu = matrix.cpu_speed
        mask &= np.isnan(cpu) | (cpu >= min_speed)
    needed = set(getattr(req, "features", ()) or ())
    if needed:
        mask &= np.fromiter(
            (matrix.features_at(i) is None
             or needed <= matrix.features_at(i) for i in range(n)),
            dtype=bool, count=n,
        )
    min_mem = int(getattr(req, "min_memory_bytes", 0) or 0)
    if min_mem:
        mask &= matrix.metric_column("mem_avail_bytes") >= min_mem
    min_disk = int(getattr(req, "min_disk_bytes", 0) or 0)
    if min_disk:
        mask &= matrix.metric_column("disk_avail_bytes") >= min_disk
    return mask


# -------------------------------------------------- rule-column engine
def matrix_column_engine(
    matrix: HostStateMatrix,
) -> Callable[[str, str], np.ndarray]:
    """A column engine for :class:`repro.rules.vector.VectorRuleEvaluator`.

    Maps the rule files' script names onto the matrix's metric columns,
    so one rule set classifies *every registered host at once*.
    Unknown scripts raise ``KeyError`` (exactly like the per-host
    script engines).
    """

    def engine(script: str, param: str = "") -> np.ndarray:
        return matrix.metric_column(script_metric(script, param))

    return engine
