"""The host table: the registry's soft state, one row per host.

Everything the registry knows about a host lives here once, as a set of
columns — one row per registered host, in registration order (the
paper's "machine list" order that makes first fit deterministic).
:class:`~repro.registry.softstate.SoftStateTable` is the thin lease and
trace layer over it; a :class:`HostRecord` is a read-only view of one
row for the callers that want to talk about one host.

The columns are stdlib :mod:`array` buffers.  A decision reads them
row by row: the destination pick walks the rows in registration order
and tests each against the policy's destination conditions and the
victim's requirements (:meth:`HostStateMatrix.fits`), stopping at the
first fit (:mod:`repro.registry.strategies`), so a registry — pushes,
records and decisions alike — never imports numpy.  Only the batch
column API (:meth:`~HostStateMatrix.metric_column`,
:meth:`~HostStateMatrix.set_status_rows`,
:meth:`~HostStateMatrix.rows_of`), which the monitor hub and the column
rules use, hands out zero-copy numpy views of the buffers, built on
first use and cached until :meth:`HostStateMatrix._grow` replaces them.

The full column contract (name, dtype, units, invalidation trigger)
is documented in ``docs/decision_plane.md``.  In short:

* **Status columns** (``state``, ``last_update``, ``updates_received``,
  ``expiry_traced`` and one float64 column per metric in
  :data:`METRIC_COLUMNS`) are written *in place* on every soft-state
  push — views over them stay current until growth replaces the
  buffers, and a push rebuilds none.
* **Sparse side tables** hold what only a few rows carry: a process
  report (OVERLOADED pushes) and metric keys outside the vocabulary
  (a child registry's ``"hosts"``), both keyed by row and replaced or
  cleared by the row's next push.

Missing data is ``NaN``: a predicate over an unreported metric is
*false*, while a *static* field a record never declared does not
disqualify it.
"""

from __future__ import annotations

import math
from array import array
from operator import methodcaller
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from ..rules.states import FREE, SystemState
from ..rules.vocabulary import (
    METRICS as METRIC_COLUMNS,  # the matrix's metric columns, in order
    script_metric,
)

if TYPE_CHECKING:
    import numpy as np

_COL_INDEX = {name: j for j, name in enumerate(METRIC_COLUMNS)}
_WIDTH = len(METRIC_COLUMNS)

#: Rows a new table holds before its first growth.
_CAPACITY = 16

#: The 1-D columns, grown and compacted in lockstep: each one's
#: :mod:`array` typecode and the dtype of its numpy view.
_COLUMNS = {
    "_state": ("b", "int8"),
    "_last_update": ("d", "float64"),
    "_registered_at": ("d", "float64"),
    "_updates": ("q", "int64"),
    "_expiry_traced": ("b", "bool"),  # 0/1
    "_cpu_speed": ("d", "float64"),
}

#: One row of unreported metrics.
_NAN_ROW = array("d", [math.nan]) * _WIDTH


def _zeros(code: str, n: int) -> array:
    return array(code, bytes(n * array(code).itemsize))


def _features(raw: Any) -> Optional[frozenset]:
    """The offered feature set, or ``None`` when undeclared
    (undeclared static fields are not held against a candidate)."""
    if raw is None:
        return None
    return frozenset(f for f in str(raw).split(",") if f)


def _speed(raw: Any) -> float:
    """A ``cpu_speed`` value as a float; NaN when undeclared."""
    return float(raw) if raw is not None else math.nan


def _parse(statics: List[dict], key: str, parse: Callable) -> list:
    """``[parse(static.get(key)) for static in statics]``, parsing each
    distinct (hashable) value once."""
    raws = list(map(methodcaller("get", key), statics))
    parsed = {raw: parse(raw) for raw in dict.fromkeys(raws)}
    return list(map(parsed.__getitem__, raws))


class HostExists(ValueError):
    """A batch named a host that has a row, or one host twice."""


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

    # Indexing an ``array`` hands back Python scalars.
    @property
    def state(self) -> SystemState:
        m = self._m
        return SystemState(m._state[m._index[self.host]])

    @property
    def last_update(self) -> float:
        m = self._m
        return m._last_update[m._index[self.host]]

    @property
    def updates_received(self) -> int:
        m = self._m
        return m._updates[m._index[self.host]]

    @property
    def expiry_traced(self) -> bool:
        m = self._m
        return bool(m._expiry_traced[m._index[self.host]])

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


class HostStateMatrix:
    """The host table, row ``i`` = the ``i``-th registered host.

    Written through :class:`~repro.registry.softstate.SoftStateTable`,
    which stamps the clock; everyone else treats the columns as
    read-only views.
    """

    def __init__(self):
        self._n = 0
        self._hosts: List[str] = []
        self._index: Dict[str, int] = {}
        #: Per-row static description, as registered.
        self._static: List[dict] = []
        #: Per-row offered feature sets (``None`` = undeclared).
        self._features: List[Optional[frozenset]] = []
        # ``_expiry_traced``: expiry already traced for the current
        # lease lapse (reset by the next push, so each lapse produces
        # exactly one event).
        for attr, (code, _) in _COLUMNS.items():
            setattr(self, attr, _zeros(code, _CAPACITY))
        #: The metric columns, row-major: row ``i``'s metric ``j`` is
        #: item ``i * len(METRIC_COLUMNS) + j``.
        self._metrics = _zeros("d", _CAPACITY * _WIDTH)
        #: Buffer name → its numpy view (see :meth:`_column`); emptied
        #: when ``_grow`` replaces the buffers.
        self._arrays: Dict[str, np.ndarray] = {}
        #: Row → process report of the last push that carried one.
        self.processes: Dict[int, List[dict]] = {}
        #: Row → the last push's metrics outside :data:`METRIC_COLUMNS`.
        self._extras: Dict[int, Dict[str, float]] = {}
        #: Bumped when the row set changes (resolved rows hold till then).
        self.layout = 0
        #: Row-aligned :class:`HostRecord` handles, one per host for as
        #: long as it is registered; built on the first read, so they
        #: cover a prefix of the rows.
        self._views: List[HostRecord] = []

    # -- shape ------------------------------------------------------------
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

    def rows_of(self, hosts: List[str]) -> np.ndarray:
        """Row indices of a whole list of hosts (``KeyError`` when one
        has no row)."""
        import numpy as np

        return np.fromiter(map(self._index.__getitem__, hosts),
                           dtype=np.intp, count=len(hosts))

    # -- row views --------------------------------------------------------
    def view(self, host: str) -> Optional[HostRecord]:
        """The host's :class:`HostRecord` handle, or ``None``."""
        row = self._index.get(host)
        return None if row is None else self._views_to(row + 1)[row]

    def views(self) -> List[HostRecord]:
        """Every row's handle in row order: the table's own list,
        which callers must treat as read-only."""
        return self._views_to(self._n)

    def _views_to(self, stop: int) -> List[HostRecord]:
        """The handle list, built out to cover rows ``[0, stop)``."""
        views = self._views
        if len(views) < stop:
            views.extend([HostRecord(self, host)
                          for host in self._hosts[len(views):stop]])
        return views

    def metrics_at(self, row: int) -> Dict[str, float]:
        """The reported metric columns of one row, plus whatever
        off-vocabulary keys its last push carried, as a dict."""
        base = row * _WIDTH
        metrics = {
            name: value
            for name, value in zip(METRIC_COLUMNS,
                                   self._metrics[base:base + _WIDTH])
            if value == value  # NaN = unreported
        }
        extras = self._extras.get(row)
        if extras:
            metrics.update(extras)
        return metrics

    # -- mutation (called by SoftStateTable only) -------------------------
    def _column(self, attr: str) -> np.ndarray:
        """The numpy view of a whole buffer, capacity rows long."""
        view = self._arrays.get(attr)
        if view is None:
            import numpy as np

            if attr == "_metrics":
                view = np.frombuffer(self._metrics, dtype=np.float64)
                view = view.reshape(-1, _WIDTH)
            else:
                view = np.frombuffer(getattr(self, attr),
                                     dtype=_COLUMNS[attr][1])
            self._arrays[attr] = view
        return view

    def _grow(self, need: int) -> None:
        """Reallocate once, to at least double and at least ``need``.

        The buffers are replaced, never resized: a view still holds the
        old buffer, which an in-place resize would refuse
        (``BufferError``).  Such a view stays readable but no longer
        sees new writes; the view cache is emptied."""
        cap = max(2 * len(self._state), need)
        n = self._n
        # Rows past ``_n`` are scratch: ``add_rows`` initialises every
        # column of the rows it hands out.
        for attr, (code, _) in _COLUMNS.items():
            grown = getattr(self, attr)[:n]
            grown.extend(_zeros(code, cap - n))
            setattr(self, attr, grown)
        metrics = self._metrics[:n * _WIDTH]
        metrics.extend(_zeros("d", (cap - n) * _WIDTH))
        self._metrics = metrics
        self._arrays = {}

    def add_rows(self, hosts: List[str], statics: List[dict],
                 now: float) -> int:
        """Append newly-registered hosts (``statics`` row-aligned with
        ``hosts``); returns the first new row.  A ``cpu_speed`` that is
        not a number, or a name that already has a row or repeats
        (:class:`HostExists`), refuses the whole batch."""
        speeds = _parse(statics, "cpu_speed", _speed)
        features = _parse(statics, "features", _features)
        fresh = set(hosts)
        if len(fresh) != len(hosts) or not self._index.keys().isdisjoint(
                fresh):
            seen = set(self._index)
            for host in hosts:
                if host in seen:
                    raise HostExists(f"host {host!r} already has a row")
                seen.add(host)
        statics = list(map(dict, statics))
        first = self._n
        n = first + len(hosts)
        if n > len(self._state):
            self._grow(n)
        self._hosts.extend(hosts)
        self._index.update(zip(hosts, range(first, n)))
        self._static.extend(statics)
        self._features.extend(features)
        k = n - first
        self._state[first:n] = array("b", [FREE]) * k
        self._last_update[first:n] = array("d", [now]) * k
        self._registered_at[first:n] = array("d", [now]) * k
        self._updates[first:n] = _zeros("q", k)
        self._expiry_traced[first:n] = _zeros("b", k)
        self._cpu_speed[first:n] = array("d", speeds)
        self._metrics[first * _WIDTH:n * _WIDTH] = _NAN_ROW * k
        self._n = n
        self.layout += 1
        return first

    def add_row(self, host: str, static: dict, now: float) -> int:
        """:meth:`add_rows` for one host."""
        return self.add_rows([host], [static], now)

    def set_static(self, host: str, static: dict, now: float) -> None:
        """Refresh a re-registering host's static info + lease."""
        row = self._index[host]
        self._cpu_speed[row] = _speed(static.get("cpu_speed"))
        self._features[row] = _features(static.get("features"))
        self._static[row] = dict(static)
        self._last_update[row] = now
        self._expiry_traced[row] = 0

    def set_status(self, host: str, state: SystemState,
                   metrics: Dict[str, float], now: float,
                   processes: Optional[List[dict]] = None) -> None:
        """Fold in one status push: :meth:`set_status_rows` for a
        single row, as scalar-indexed in-place writes (the hot path of
        every per-host monitor and live heartbeat)."""
        row = self._index[host]
        self._state[row] = state
        self._last_update[row] = now
        self._updates[row] += 1
        self._expiry_traced[row] = 0
        values = self._metrics
        base = row * _WIDTH
        values[base:base + _WIDTH] = _NAN_ROW
        extras = None
        for name, value in metrics.items():
            j = _COL_INDEX.get(name)
            if j is None:
                if extras is None:
                    extras = {}
                extras[name] = value
            elif value is not None:
                values[base + j] = value
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
        import numpy as np

        column = self._column
        rows = np.asarray(rows, dtype=np.intp)
        column("_state")[rows] = np.asarray(codes, dtype=np.int8)
        column("_last_update")[rows] = now
        np.add.at(column("_updates"), rows, 1)
        column("_expiry_traced")[rows] = False
        block = np.full((rows.shape[0], _WIDTH), np.nan)
        unknown = {}
        for name, values in columns.items():
            j = _COL_INDEX.get(name)
            if j is None:
                unknown[name] = np.asarray(values, dtype=float).tolist()
            else:
                block[:, j] = values
        column("_metrics")[rows] = block
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
        if row < len(self._views):
            self._views.pop(row)
        if row < n - 1:
            # Equal-length slice moves: no buffer changes size.
            for attr in _COLUMNS:
                col = getattr(self, attr)
                col[row:n - 1] = col[row + 1:n]
            metrics = self._metrics
            metrics[row * _WIDTH:(n - 1) * _WIDTH] = \
                metrics[(row + 1) * _WIDTH:n * _WIDTH]
            for h in self._hosts[row:]:
                self._index[h] -= 1
        for attr in ("processes", "_extras"):
            side = getattr(self, attr)
            if side:
                setattr(self, attr, {
                    r - (r > row): v for r, v in side.items() if r != row
                })
        self._n = n - 1
        self.layout += 1

    def mark_expiry_traced(self, rows: List[int]) -> None:
        """Flag the current lease lapse of ``rows`` traced (their next
        push clears it)."""
        traced = self._expiry_traced
        for row in rows:
            traced[row] = 1

    # -- reads ------------------------------------------------------------
    def metric(self, row: int, name: str) -> float:
        """One row's value of a :data:`METRIC_COLUMNS` metric; NaN =
        unreported."""
        return self._metrics[row * _WIDTH + _COL_INDEX[name]]

    def fits(self, conditions: Sequence[Any],
             req: Any) -> Callable[[int], bool]:
        """The destination test of one decision, as a row predicate:
        every policy destination condition (paper §5.3) holds on the
        row's metrics, and the row owns all the resources ``req``
        needs (§3.2).

        ``req`` duck-types ResourceRequirements / ProcessInfo
        (min_memory_bytes, min_disk_bytes, min_cpu_speed, features).
        An unreported metric (NaN) fails its condition and a positive
        memory or disk requirement — "ready and owns all the resources
        required" is checked, not assumed — while an undeclared
        *static* field (cpu_speed, features — e.g. a delegated child
        registry's) is not held against a row.  Integer requirements
        compare as doubles, like the float64 columns they meet.
        """
        values, speeds = self._metrics, self._cpu_speed
        offered = self._features
        metrics = _RowMetrics(values)
        min_speed = min_mem = min_disk = 0.0
        needed: set = set()
        if req is not None:
            min_speed = float(getattr(req, "min_cpu_speed", 0.0) or 0.0)
            needed = set(getattr(req, "features", ()) or ())
            min_mem = float(int(getattr(req, "min_memory_bytes", 0) or 0))
            min_disk = float(int(getattr(req, "min_disk_bytes", 0) or 0))
        mem = _COL_INDEX["mem_avail_bytes"]
        disk = _COL_INDEX["disk_avail_bytes"]

        def fits(row: int) -> bool:
            base = row * _WIDTH
            if conditions:
                metrics.base = base
                if not all(cond.holds(metrics) for cond in conditions):
                    return False
            if min_speed:
                cpu = speeds[row]  # NaN = undeclared
                if cpu == cpu and not cpu >= min_speed:
                    return False
            if needed:
                features = offered[row]
                if features is not None and not needed <= features:
                    return False
            # ``not x >= y``: an unreported (NaN) metric fails.
            if min_mem and not values[base + mem] >= min_mem:
                return False
            return not min_disk or values[base + disk] >= min_disk

        return fits

    # -- batch columns ----------------------------------------------------
    def metric_column(self, name: str) -> np.ndarray:
        """float64 view of one metric column; NaN = unreported.

        Raises ``KeyError`` for names outside :data:`METRIC_COLUMNS`.
        """
        return self._column("_metrics")[: self._n, _COL_INDEX[name]]


class _RowMetrics:
    """One row's metric columns as the mapping
    :meth:`~repro.core.policy.MetricPredicate.holds` reads: ``get`` is
    the row's value, ``None`` when unreported (NaN) or outside
    :data:`METRIC_COLUMNS`.  :meth:`HostStateMatrix.fits` points one at
    each row it tests instead of building a dict per row."""

    __slots__ = ("_values", "base")

    def __init__(self, values: array):
        self._values = values
        #: The row's first item in the row-major metric buffer.
        self.base = 0

    def get(self, name: str, default: Any = None) -> Any:
        j = _COL_INDEX.get(name)
        if j is None:
            return default
        value = self._values[self.base + j]
        return value if value == value else None


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
