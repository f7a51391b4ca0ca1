"""The batched host plane: per-host sensor state as numpy columns.

One Python sim-process per host per sensor family — a load-average
sampler each, a duty-cycle generator each, a monitor loop each — caps
credible sweeps at tens of hosts.  This module keeps that state as
**columns** — one row per host in builder order — updated by a
*single* periodic process per cluster: the load-average fold runs as
one vectorized statement across every host, and background duty
cycles / injected hogs become closed-form run-queue columns instead of
event-generating processes.

**Load averages.**  The kernel's classic computation: every
:data:`SAMPLE_INTERVAL` seconds the run-queue length ``n`` is folded
into three exponentially damped moving averages::

    load = load * k + n * (1 - k),   k = exp(-interval / window)

with windows of 60 s (1-minute), 300 s (5-minute) and 900 s
(15-minute); :data:`DECAY_FACTORS` holds the ``(k, 1 - k)`` pairs.
The paper's Rule 1 and the §5.3 policies threshold on the 1-minute
value; Figure 5 plots it.  The ``load1``/``load5``/``load15`` columns
are the only copy of a host's load averages:
:meth:`~repro.cluster.host.Host.load_averages` reads its row.

Two kinds of row:

* **backed** rows belong to a full :class:`~repro.cluster.host.Host`;
  their run queue is gathered from ``host.cpu.run_queue`` each tick.
* **analytic** rows model their background load in closed form: each
  duty cycle contributes its exact mean occupancy over the elapsed
  sample window (the integral of its on/off square wave — alias-free)
  and injected hogs add a constant; no CPU jobs, no events, and no
  ``Host`` object.  This is where the O(1000s)-host scaling comes
  from.  When the cluster does build a ``Host`` for one (something is
  placed on it), the host attaches to the existing row: its load
  averages go on from the row's current values, while the run queue
  stays closed-form.

The column fold is bit-identical to folding each host on its own:
numpy's elementwise ``col * k + n * mk`` performs exactly the two
float64 multiplies and one add of the per-host statement
``load = load * k + n * mk`` (no fused multiply-add).
``tests/cluster/test_plane.py`` holds that line with a per-host sampler
(``tests/cluster/reference.py``) over whole simulated runs.  All rows
fold on the cluster-wide grid ``t0 + i * SAMPLE_INTERVAL``; a host
attached *mid-run* joins the shared grid instead of starting its own.

The keys of :meth:`HostPlane.analytic_sensor_columns` are the metric
tuple of :mod:`repro.rules.vocabulary`, like those of
:meth:`repro.monitor.sensors.SensorSuite.sample`; a tier-1 test holds
both producers to it.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, Dict, List, Optional

import numpy as np

#: Seconds between folds: the traditional kernel sampling period.
SAMPLE_INTERVAL = 5.0

#: ``((k, 1 - k), ...)`` for the 1/5/15-minute windows.
DECAY_FACTORS = tuple(
    (k, 1.0 - k)
    for k in (math.exp(-SAMPLE_INTERVAL / window)
              for window in (60.0, 300.0, 900.0))
)
(_K1, _MK1), (_K5, _MK5), (_K15, _MK15) = DECAY_FACTORS

#: Baseline open sockets on an idle workstation (daemons etc.), for
#: analytic rows and the sensor suite alike.
BASE_SOCKETS = 25

#: Rows the columns start with.
_CAPACITY = 16


class ClusterStateArrays:
    """Columnar per-host sensor state, one row per host in builder order.

    Growable float64 columns (doubling, or straight to the size a
    batch needs, like
    :class:`~repro.registry.hostmatrix.HostStateMatrix`).  Owned and
    written by :class:`HostPlane`, whose derived cache is only as
    fresh as its own mutators keep it; everyone else treats the column
    views as read-only.
    """

    #: Grown-in-lockstep float64 columns.
    _COLUMNS = (
        "load1", "load5", "load15", "runq",
        "duty_busy", "duty_period", "duty_phase", "hog_count",
        "mon_busy", "mon_period", "mon_phase",
        "mem_avail_bytes", "mem_avail_pct", "vmem_avail_pct",
        "disk_avail_bytes",
    )

    def __init__(self):
        self._n = 0
        self._hosts: List[str] = []
        self._index: Dict[str, int] = {}
        for name in self._COLUMNS:
            setattr(self, "_" + name, np.zeros(_CAPACITY))
        self._analytic = np.zeros(_CAPACITY, dtype=bool)

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    def row_of(self, host: str) -> Optional[int]:
        return self._index.get(host)

    def rows_of(self, hosts: List[str]) -> np.ndarray:
        """Row indices of a whole list of hosts, -1 where none."""
        return np.fromiter(map(self._index.get, hosts, repeat(-1)),
                           dtype=np.intp, count=len(hosts))

    # -- mutation -------------------------------------------------------
    def _grow(self, need: int) -> None:
        """Reallocate once, to at least double and at least ``need``."""
        cap = max(2 * self._analytic.shape[0], need)
        for name in self._COLUMNS:
            attr = "_" + name
            col = np.zeros(cap)
            col[: self._n] = getattr(self, attr)[: self._n]
            setattr(self, attr, col)
        analytic = np.zeros(cap, dtype=bool)
        analytic[: self._n] = self._analytic[: self._n]
        self._analytic = analytic

    def add_rows(self, hosts: List[str]) -> int:
        """Append one row of zeros per name (rows are never removed,
        so the columns past ``n`` are still as allocated); returns the
        first new row.  A name that already has a row, or repeats,
        refuses the whole batch."""
        fresh = set(hosts)
        if len(fresh) != len(hosts) or not self._index.keys().isdisjoint(
                fresh):
            seen = set(self._index)
            for host in hosts:
                if host in seen:
                    raise ValueError(f"host {host!r} already has a row")
                seen.add(host)
        first = self._n
        n = first + len(hosts)
        if n > self._analytic.shape[0]:
            self._grow(n)
        self._hosts.extend(hosts)
        self._index.update(zip(hosts, range(first, n)))
        self._n = n
        return first

    def add_row(self, host: str) -> int:
        """:meth:`add_rows` for one name."""
        return self.add_rows([host])

    # -- column views ---------------------------------------------------
    def col(self, name: str) -> np.ndarray:
        """Active-row view of one column (raises for unknown names)."""
        if name not in self._COLUMNS:
            raise KeyError(name)
        return getattr(self, "_" + name)[: self._n]

    def load_averages(self, row: int) -> tuple:
        """(1-min, 5-min, 15-min) of one row as Python floats."""
        return (self._load1.item(row), self._load5.item(row),
                self._load15.item(row))

    @property
    def analytic(self) -> np.ndarray:
        return self._analytic[: self._n]

    @property
    def hosts(self) -> List[str]:
        return self._hosts


class _Derived:
    """What a tick and a sensor snapshot derive from the columns that
    change only through a :class:`HostPlane` mutator, for one
    :attr:`HostPlane.version`.  Arrays a caller may be handed are
    read-only; the column views are the plane's own.

    A cluster's analytic rows are usually one run of rows (its
    analytic batch), and its duty families usually cover all of them;
    then the gathered columns are slices — views that cost no copy —
    instead of fancy-indexed copies of the same values."""

    __slots__ = ("version", "n", "analytic", "take", "families", "hogs",
                 "runq", "load1", "load5", "load15", "sensor")

    def __init__(self, plane: "HostPlane"):
        a = plane.arrays
        self.version = plane.version
        self.n = a.n
        self.analytic = rows = _frozen(np.flatnonzero(a.analytic))
        #: The analytic rows as an index: a slice when they are one run.
        self.take = take = (
            slice(int(rows[0]), int(rows[-1]) + 1)
            if rows.size and rows[-1] - rows[0] == rows.size - 1 else rows)
        #: Per duty family with an active row: those rows (as an index
        #: into ``analytic``) and their period, busy time and phase.
        self.families = []
        for family in ("duty", "mon"):
            period = a.col(f"{family}_period")[take]
            active = np.flatnonzero(period > 0)
            if not active.size:
                continue
            active = (slice(None) if active.size == rows.size
                      else _frozen(active))
            self.families.append((active,) + tuple(
                _frozen(a.col(f"{family}_{name}")[take][active])
                for name in ("period", "busy", "phase")))
        self.hogs = _frozen(a.col("hog_count")[take])
        self.runq = a.col("runq")
        self.load1, self.load5, self.load15 = (
            a.col("load1"), a.col("load5"), a.col("load15"))
        # Full-length sensor columns, in SensorSuite.sample's order:
        # views of the live ones, the closed-form ones computed here.
        util = np.zeros(self.n)
        for family in ("duty", "mon"):
            period = a.col(f"{family}_period")
            busy = a.col(f"{family}_busy")
            active = period > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                util[active] += busy[active] / period[active]
        hogs = a.col("hog_count")
        util = np.minimum(1.0, util + np.where(hogs > 0, 1.0, 0.0))
        comm = _frozen(np.zeros(self.n))
        self.sensor = {
            "loadavg1": self.load1,
            "loadavg5": self.load5,
            "loadavg15": self.load15,
            "cpu_util": _frozen(util),
            "cpu_idle_pct": _frozen(100.0 * (1.0 - util)),
            "proc_count": _frozen(
                (a.col("duty_period") > 0).astype(float) + hogs),
            "socket_count": _frozen(np.full(self.n, float(BASE_SOCKETS))),
            "mem_avail_bytes": a.col("mem_avail_bytes"),
            "mem_avail_pct": a.col("mem_avail_pct"),
            "vmem_avail_pct": a.col("vmem_avail_pct"),
            "disk_avail_bytes": a.col("disk_avail_bytes"),
            "send_kbs": comm,
            "recv_kbs": comm,
            "comm_mbs": comm,
        }


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class HostPlane:
    """The single periodic sampler over :class:`ClusterStateArrays`.

    A tick and :meth:`analytic_sensor_columns` read what they derive
    from rarely-changing columns — the analytic rows, their duty
    families and hogs, utilisation — from one cache (:class:`_Derived`),
    rebuilt when :attr:`version` has moved.  Every mutator bumps it, as
    every register and unregister bumps
    :attr:`repro.registry.hostmatrix.HostStateMatrix.layout`.
    """

    def __init__(self, env: Any):
        self.env = env
        self.arrays = ClusterStateArrays()
        #: The hosts that exist as objects and their rows (aligned):
        #: the only rows whose run queue each tick gathers.
        self._attached: List[Any] = []
        self._attached_rows: List[int] = []
        self.ticks = 0
        self.folds = 0
        self._proc = None
        #: Bumped by every mutator before it writes: the key of the
        #: derived cache.
        self.version = 0
        self._derived = _Derived(self)

    # -- registration ---------------------------------------------------
    def attach(self, host: Any) -> int:
        """Register ``host`` for the run-queue gather; returns its row,
        whose load averages this plane folds in batch.

        A new name gets a backed row.  A name that already has a row —
        an analytic row whose ``Host`` is being built — keeps it, load
        averages and all.
        """
        a = self.arrays
        row = a.row_of(host.name)
        if row is None:
            row = a.add_row(host.name)
        self.version += 1
        self._attached.append(host)
        self._attached_rows.append(row)
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="hostplane")
        return row

    def add_analytic_rows(
        self,
        names: List[str],
        mean_load: Any = 0.0,
        period: Any = 2.0,
        phase: Any = 0.0,
        static: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append rows whose load is modelled in closed form.

        ``mean_load``/``period``/``phase`` describe the background duty
        cycle (busy ``mean_load * period`` wall-seconds per period) and
        ``static`` pins the memory/disk sensor columns; each is one
        value for the whole batch or one per row.  The batch is checked
        before any row is added.  The rows fold on the tick process the
        cluster's first backed host started.
        """
        mean_load, period, phase = (
            np.asarray(v, dtype=float) for v in (mean_load, period, phase))
        if not ((0 <= mean_load) & (mean_load < 1)).all():
            raise ValueError("mean_load must lie in [0, 1)")
        if (period <= 0).any():
            raise ValueError("period must be positive")
        if any(v.ndim and v.shape != (len(names),)
               for v in (mean_load, period, phase)):
            raise ValueError("per-row values must be one per name")
        a = self.arrays
        rows = slice(a.add_rows(names), a.n)
        self.version += 1
        a.analytic[rows] = True
        a.col("duty_busy")[rows] = mean_load * period
        a.col("duty_period")[rows] = period
        a.col("duty_phase")[rows] = phase
        for key, value in (static or {}).items():
            a.col(key)[rows] = value

    def set_monitor_duty(
        self, rows: np.ndarray, busy: float, period: float,
        phases: np.ndarray,
    ) -> None:
        """Model the monitor's per-cycle CPU cost as a second duty
        family on analytic rows (the Figure 5 overhead, in closed
        form)."""
        a = self.arrays
        self.version += 1
        a.col("mon_busy")[rows] = float(busy)
        a.col("mon_period")[rows] = float(period)
        a.col("mon_phase")[rows] = np.asarray(phases, dtype=float)

    def _analytic_row(self, name: str) -> int:
        row = self.arrays.row_of(name)
        if row is None:
            raise KeyError(name)
        if not self.arrays.analytic[row]:
            raise ValueError(f"{name!r} is not an analytic row")
        return row

    def inject_hogs(self, name: str, count: int = 1) -> None:
        """Add compute-bound background tasks to an analytic row."""
        row = self._analytic_row(name)
        self.version += 1
        self.arrays.col("hog_count")[row] += int(count)

    def clear_hogs(self, name: str) -> None:
        """Remove an analytic row's hogs (a backed row has none: a
        tick reads its run queue from its CPU)."""
        row = self._analytic_row(name)
        self.version += 1
        self.arrays.col("hog_count")[row] = 0.0

    def _current(self) -> _Derived:
        """The derived cache, rebuilt if a mutator ran since."""
        derived = self._derived
        if derived.version != self.version:
            derived = self._derived = _Derived(self)
        return derived

    def analytic_rows(self) -> np.ndarray:
        """The analytic rows, ascending (read-only)."""
        return self._current().analytic

    # -- the batched tick -----------------------------------------------
    def _run(self):
        while True:
            yield SAMPLE_INTERVAL  # bare-delay fast path
            self._tick()

    @staticmethod
    def _on_time(x: np.ndarray, period: np.ndarray,
                 busy: np.ndarray) -> np.ndarray:
        """Signed busy-seconds of an eternal square wave over [0, x)."""
        return (busy * np.floor(x / period)
                + np.minimum(np.mod(x, period), busy))

    def _analytic_runq(self, t: float, derived: _Derived) -> np.ndarray:
        """Closed-form run queue of analytic rows for the sample ending
        at ``t``: each duty family contributes its **exact mean
        occupancy** over the elapsed sample interval (the integral of
        the on/off square wave, in closed form) plus the constant hog
        count.

        Folding the windowed mean instead of a point sample keeps the
        model alias-free: a 2 s duty cycle point-sampled on the 5 s
        grid would hit only ``gcd``-many points of the wave and read a
        load unrelated to ``mean_load``; the windowed mean converges to
        ``mean_load`` for every period/phase combination.
        """
        q = derived.hogs.copy()
        dt = SAMPLE_INTERVAL
        for active, p, b, phase in derived.families:
            x1 = t - phase
            q[active] += (
                self._on_time(x1, p, b)
                - self._on_time(x1 - dt, p, b)
            ) / dt
        return q

    def _tick(self) -> None:
        d = self._current()
        if d.n == 0:
            self.ticks += 1
            return
        runq = d.runq
        for row, host in zip(self._attached_rows, self._attached):
            runq[row] = host.cpu.run_queue
        # Analytic rows stay closed-form, host attached or not.
        if d.analytic.size:
            runq[d.take] = self._analytic_runq(self.env.now, d)
        # The vectorized fold — one statement per window, all hosts.
        load1, load5, load15 = d.load1, d.load5, d.load15
        load1 *= _K1
        load1 += runq * _MK1
        load5 *= _K5
        load5 += runq * _MK5
        load15 *= _K15
        load15 += runq * _MK15
        self.ticks += 1
        self.folds += d.n

    # -- sensor columns for the monitor hub ------------------------------
    def analytic_sensor_columns(
        self, rows: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """One coherent column snapshot of the analytic rows, in the
        exact metric vocabulary of ``SensorSuite.sample``.

        Utilization is the closed-form mean: duty fraction plus
        monitor-cost fraction, saturated to 1 when hogs run.  Each
        column is a cached full-length column indexed by ``rows``.
        """
        return {name: col[rows]
                for name, col in self._current().sensor.items()}
