"""The host table: the registry's soft state, one row per host.

Everything the registry knows about a host lives here once, as a set of
numpy columns — one row per registered host, in registration order (the
paper's "machine list" order that makes first fit deterministic) — so
the decision plane evaluates **all hosts at once**: policy destination
conditions are column comparisons, destination selection is a strategy
over the resulting row mask (:mod:`repro.registry.strategies`), and
rule sets compile to column evaluators (:mod:`repro.rules.vector`).
:class:`~repro.registry.softstate.SoftStateTable` is the thin lease and
trace layer over it; a :class:`HostRecord` is a read-only view of one
row for the callers that want to talk about one host.

The full column contract (name, dtype, units, invalidation trigger)
is documented in ``docs/decision_plane.md``.  In short:

* **Status columns** (``state``, ``last_update``, ``updates_received``,
  ``expiry_traced`` and one float64 column per metric in
  :data:`METRIC_COLUMNS`) are written *in place* on every soft-state
  push — views over them are always current and never rebuilt.
* **Sparse side tables** hold what only a few rows carry: a process
  report (OVERLOADED pushes) and metric keys outside the vocabulary
  (a child registry's ``"hosts"``), both keyed by row and replaced or
  cleared by the row's next push.
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

from ..rules.states import FREE, SystemState
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


class HostRecord:
    """One registered host (or child registry, in a hierarchy): a
    read-only view of its row in the :class:`HostStateMatrix`.

    The view finds its row by host name on every read, so it stays
    correct when an earlier row is unregistered and raises ``KeyError``
    once its own host is.
    """

    __slots__ = ("_m", "host")

    def __init__(self, matrix: "HostStateMatrix", host: str):
        self._m = matrix
        self.host = host

    # ``ndarray.item`` hands back Python scalars.
    @property
    def state(self) -> SystemState:
        m = self._m
        return SystemState(m._state.item(m._index[self.host]))

    @property
    def registered_at(self) -> float:
        m = self._m
        return m._registered_at.item(m._index[self.host])

    @property
    def last_update(self) -> float:
        m = self._m
        return m._last_update.item(m._index[self.host])

    @property
    def updates_received(self) -> int:
        m = self._m
        return m._updates.item(m._index[self.host])

    @property
    def expiry_traced(self) -> bool:
        m = self._m
        return m._expiry_traced.item(m._index[self.host])

    @property
    def static_info(self) -> dict:
        m = self._m
        return m._static[m._index[self.host]]

    @property
    def metrics(self) -> Dict[str, float]:
        """The metrics of the last push, as a fresh dict."""
        m = self._m
        return m.metrics_at(m._index[self.host])

    @property
    def processes(self) -> List[dict]:
        m = self._m
        return m.processes.get(m._index[self.host], [])

    def __repr__(self) -> str:
        return f"<HostRecord {self.host} {self.state.name}>"


class HostStateMatrix:
    """The host table, row ``i`` = the ``i``-th registered host.

    Written through :class:`~repro.registry.softstate.SoftStateTable`,
    which stamps the clock; everyone else treats the columns as
    read-only views.
    """

    #: The 1-D columns, grown and compacted in lockstep.
    _COLUMNS = ("_state", "_last_update", "_registered_at", "_updates",
                "_expiry_traced", "_cpu_speed")

    def __init__(self, capacity: int = 16):
        capacity = max(1, int(capacity))
        self._n = 0
        self._hosts: List[str] = []
        self._index: Dict[str, int] = {}
        #: Per-row static description, as registered.
        self._static: List[dict] = []
        #: Per-row offered feature sets (``None`` = undeclared).
        self._features: List[Optional[frozenset]] = []
        self._state = np.zeros(capacity, dtype=np.int8)
        self._last_update = np.zeros(capacity, dtype=np.float64)
        self._registered_at = np.zeros(capacity, dtype=np.float64)
        self._updates = np.zeros(capacity, dtype=np.int64)
        #: Expiry already traced for the current lease lapse (reset by
        #: the next push, so each lapse produces exactly one event).
        self._expiry_traced = np.zeros(capacity, dtype=bool)
        self._cpu_speed = np.full(capacity, np.nan)
        self._metrics = np.full((capacity, len(METRIC_COLUMNS)), np.nan)
        #: Row → process report of the last push that carried one.
        self.processes: Dict[int, List[dict]] = {}
        #: Row → the last push's metrics outside :data:`METRIC_COLUMNS`.
        self._extras: Dict[int, Dict[str, float]] = {}
        # Membership caches (rebuilt lazily after row-set changes).
        self._hosts_arr: Optional[np.ndarray] = None
        self._registry_mask: Optional[np.ndarray] = None
        #: Row-aligned :class:`HostRecord` handles, one per host for as
        #: long as it is registered.
        self._views: List[HostRecord] = []

    # -- shape ------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, host: str) -> bool:
        return host in self._index

    @property
    def n(self) -> int:
        return self._n

    @property
    def hosts(self) -> List[str]:
        """Host names in row order (read-only)."""
        return self._hosts

    def row_of(self, host: str) -> Optional[int]:
        return self._index.get(host)

    def host_at(self, row: int) -> str:
        return self._hosts[row]

    def rows_of(self, hosts: List[str]) -> np.ndarray:
        """Row indices of a whole list of hosts (``KeyError`` when one
        has no row)."""
        return np.fromiter(map(self._index.__getitem__, hosts),
                           dtype=np.intp, count=len(hosts))

    # -- row views --------------------------------------------------------
    def view(self, host: str) -> Optional[HostRecord]:
        """The host's :class:`HostRecord` handle, or ``None``."""
        row = self._index.get(host)
        return None if row is None else self._views[row]

    def views(self) -> List[HostRecord]:
        """Every row's handle in row order: the table's own list,
        which callers must treat as read-only."""
        return self._views

    def metrics_at(self, row: int) -> Dict[str, float]:
        """The reported metric columns of one row, plus whatever
        off-vocabulary keys its last push carried, as a dict."""
        metrics = {
            name: value
            for name, value in zip(METRIC_COLUMNS,
                                   self._metrics[row].tolist())
            if value == value  # NaN = unreported
        }
        extras = self._extras.get(row)
        if extras:
            metrics.update(extras)
        return metrics

    # -- mutation (called by SoftStateTable only) -------------------------
    def _grow(self, need: int) -> None:
        """Reallocate once, to at least double and at least ``need``."""
        cap = max(2 * self._state.shape[0], need)
        # Rows past ``_n`` are scratch: ``add_rows`` initialises every
        # column of the rows it hands out.
        for attr in self._COLUMNS:
            setattr(self, attr, np.resize(getattr(self, attr), cap))
        self._metrics = np.resize(self._metrics,
                                  (cap, len(METRIC_COLUMNS)))

    def add_rows(self, hosts: List[str], statics: List[dict],
                 now: float) -> int:
        """Append newly-registered hosts (``statics`` row-aligned with
        ``hosts``); returns the first new row.  A name that already has
        a row, or repeats, refuses the whole batch."""
        fresh = set(hosts)
        if len(fresh) != len(hosts) or not self._index.keys().isdisjoint(
                fresh):
            seen = set(self._index)
            for host in hosts:
                if host in seen:
                    raise ValueError(f"host {host!r} already has a row")
                seen.add(host)
        statics = [dict(static) for static in statics]
        features = [_parse_features(static) for static in statics]
        speeds = [self._static_speed(static) for static in statics]
        first = self._n
        n = first + len(hosts)
        if n > self._state.shape[0]:
            self._grow(n)
        self._hosts.extend(hosts)
        self._index.update(zip(hosts, range(first, n)))
        self._views.extend([HostRecord(self, host) for host in hosts])
        self._static.extend(statics)
        self._features.extend(features)
        rows = slice(first, n)
        self._state[rows] = FREE
        self._last_update[rows] = now
        self._registered_at[rows] = now
        self._updates[rows] = 0
        self._expiry_traced[rows] = False
        self._cpu_speed[rows] = speeds
        self._metrics[rows] = np.nan
        self._n = n
        self._hosts_arr = None
        self._registry_mask = None
        return first

    def add_row(self, host: str, static: dict, now: float) -> int:
        """:meth:`add_rows` for one host."""
        return self.add_rows([host], [static], now)

    @staticmethod
    def _static_speed(static: dict) -> float:
        speed = static.get("cpu_speed")
        return float(speed) if speed is not None else np.nan

    def set_static(self, host: str, static: dict, now: float) -> None:
        """Refresh a re-registering host's static info + lease."""
        row = self._index[host]
        static = self._static[row] = dict(static)
        self._features[row] = _parse_features(static)
        self._cpu_speed[row] = self._static_speed(static)
        self._last_update[row] = now
        self._expiry_traced[row] = False

    def set_status(self, host: str, state: SystemState,
                   metrics: Dict[str, float], now: float,
                   processes: Optional[List[dict]] = None) -> None:
        """Fold in one status push: :meth:`set_status_rows` for a
        single row, as scalar-indexed in-place writes (the hot path of
        every per-host monitor and live heartbeat)."""
        row = self._index[host]
        self._state[row] = int(state)
        self._last_update[row] = now
        self._updates[row] += 1
        self._expiry_traced[row] = False
        values = self._metrics[row]
        values[:] = np.nan
        extras = None
        for name, value in metrics.items():
            j = _COL_INDEX.get(name)
            if j is None:
                if extras is None:
                    extras = {}
                extras[name] = value
            elif value is not None:
                values[j] = value
        if extras:
            self._extras[row] = extras
        elif self._extras:
            self._extras.pop(row, None)
        if processes:
            self.processes[row] = list(processes)
        elif self.processes:
            self.processes.pop(row, None)

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
        A row named twice counts two pushes and keeps the later one.
        Batch pushes carry no process reports, so the pushed rows'
        side-table entries are dropped, as a scalar push without
        ``processes`` drops them.
        """
        rows = np.asarray(rows, dtype=np.intp)
        self._state[rows] = np.asarray(codes, dtype=np.int8)
        self._last_update[rows] = now
        np.add.at(self._updates, rows, 1)
        self._expiry_traced[rows] = False
        block = np.full((rows.shape[0], len(METRIC_COLUMNS)), np.nan)
        unknown = {}
        for name, values in columns.items():
            j = _COL_INDEX.get(name)
            if j is None:
                unknown[name] = np.asarray(values, dtype=float).tolist()
            else:
                block[:, j] = values
        self._metrics[rows] = block
        if self.processes or self._extras:
            pushed = set(rows.tolist())
            for side in (self.processes, self._extras):
                for row in pushed.intersection(side):
                    del side[row]
        if unknown:
            for i, row in enumerate(rows.tolist()):
                self._extras[row] = {
                    name: values[i] for name, values in unknown.items()
                }

    def remove(self, host: str) -> None:
        """Drop a row, compacting so row order stays registration
        order (rare: unregister only)."""
        row = self._index.pop(host, None)
        if row is None:
            return
        n = self._n
        self._hosts.pop(row)
        self._static.pop(row)
        self._features.pop(row)
        self._views.pop(row)
        if row < n - 1:
            for attr in self._COLUMNS:
                col = getattr(self, attr)
                col[row:n - 1] = col[row + 1:n]
            self._metrics[row:n - 1] = self._metrics[row + 1:n]
            for h in self._hosts[row:]:
                self._index[h] -= 1
        for attr in ("processes", "_extras"):
            side = getattr(self, attr)
            if side:
                setattr(self, attr, {
                    r - (r > row): v for r, v in side.items() if r != row
                })
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
    def updates_received(self) -> np.ndarray:
        """int64 count of status pushes folded into each row."""
        return self._updates[: self._n]

    @property
    def expiry_traced(self) -> np.ndarray:
        """bool: the row's current lease lapse has been traced."""
        return self._expiry_traced[: self._n]

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
        if arr is None:
            arr = self._hosts_arr = np.array(self._hosts, dtype=str)
        return arr

    @property
    def registry_mask(self) -> np.ndarray:
        """True where the record is a child registry (``"@" in host``);
        cached until the row set changes."""
        mask = self._registry_mask
        if mask is None:
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
