"""Reference implementations the cluster model is held to: load-average
sampling with one process per host, max-min filling over sets, and a
mega-cluster built one host at a time.

**Load average.**  The model the batched host plane replaces — every
host owns a sampler process that wakes each ``sample_interval``
seconds, reads its run queue and calls :meth:`LoadAverage.fold`.
``tests/cluster/`` runs it beside the plane's column fold and requires
the same bytes.

**Max-min filling.**  ``reference_maxmin`` is the progressive filling
``Network._recompute`` ran until PR 19 — residuals and users in dicts
keyed by ``(direction, host)``, the unfrozen flows in a set, a
``sum(1 for ...)`` per resource per round — kept loop for loop (over
flow indices instead of ``Flow`` objects) so the counted filling that
replaced it can be required to return the same floats, not merely
close ones.

**Building analytic hosts.**  ``add_analytic_hosts_one_by_one`` is the
loop ``analysis/overhead.py::_add_analytic_hosts`` ran until PR 23 —
two scalar draws and one ``add_analytic_host`` call per host — kept so
the batch append that replaced it can be required to leave the same
columns, the same specs and the random stream at the same position.

**The CPU.**  ``ReferenceCpu`` is the processor ``cluster/cpu.py`` had
while it was two objects: a ``Cpu`` wrapping a ``FairShareServer`` and
listening on its ``on_jobs_changed`` hook, so that one coupled submit ran
``_advance`` → ``_rebalance`` → ``_share`` → ``set_rate`` →
``_advance`` → ``_reschedule`` → ``_reschedule``.  Both classes are
kept line for line (only renamed) so the one processor-sharing server
that replaced the pair can be required to finish every job at the same
float, integrate the same busy and load times and dispatch the same
kernel events at the same instants.

**The host plane's tick.**  ``ReferencePlane`` is the
:class:`~repro.cluster.plane.HostPlane` whose tick re-gathered the
analytic rows, each duty family's ``period`` / ``busy`` / ``phase`` and
the hog column on every sample, and whose sensor snapshot re-derived
utilisation from them on every call.  Its ``_tick``,
``_analytic_runq``, ``analytic_rows`` and ``analytic_sensor_columns``
are kept line for line so the plane that caches them can be required
to fold the same run queues and report the same columns, whatever
mutators run between its ticks.
"""

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.cluster.cpu import MAX_COMM_LOAD
from repro.cluster.loadavg import DEFAULT_SAMPLE_INTERVAL, LoadAverage
from repro.cluster.network import ETHERNET_100MBPS
from repro.cluster.plane import BASE_SOCKETS, HostPlane
from repro.sim.events import Event


def sampled_loadavg(env, runqueue_fn,
                    sample_interval=DEFAULT_SAMPLE_INTERVAL):
    """A :class:`LoadAverage` folded by its own periodic sim process
    from ``runqueue_fn()`` readings."""
    loadavg = LoadAverage(sample_interval=sample_interval)

    def sampler():
        while True:
            yield env.timeout(loadavg.sample_interval)
            loadavg.fold(float(runqueue_fn()))

    env.process(sampler(), name="loadavg")
    return loadavg


def per_host_samplers(cluster):
    """Start one reference sampler per backed host of ``cluster``;
    returns ``{host name: LoadAverage}``."""
    return {
        host.name: sampled_loadavg(
            cluster.env, lambda host=host: host.cpu.run_queue,
            sample_interval=cluster.plane.sample_interval,
        )
        for host in cluster
    }


def add_analytic_hosts_one_by_one(cluster, hosts):
    """Grow ``cluster`` to ``hosts`` rows, ws3..wsN, one call each."""
    rng = cluster.rng.stream("analytic-hosts")
    for i in range(3, hosts + 1):
        cluster.add_analytic_host(
            f"ws{i}",
            mean_load=0.05 + 0.5 * float(rng.random()),
            period=2.0,
            phase=2.0 * float(rng.random()),
        )


_EPS = 1e-9


def reference_maxmin(flows, ports, default_bandwidth=ETHERNET_100MBPS):
    """Max-min fair rates by progressive filling.

    ``flows`` is a sequence of ``(src, dst, rate_cap)``, ``ports`` maps
    a host name to its ``(tx_capacity, rx_capacity)``; returns one rate
    per flow, in order.
    """
    rate = [0.0] * len(flows)
    if not flows:
        return rate
    # Residual capacity of every NIC direction in use.
    residual = {}
    users = {}
    for i, (src, dst, _cap) in enumerate(flows):
        for res in (("tx", src), ("rx", dst)):
            if res not in residual:
                tx_capacity, rx_capacity = ports[res[1]]
                residual[res] = (
                    tx_capacity if res[0] == "tx" else rx_capacity
                )
                users[res] = []
            users[res].append(i)

    unfrozen = set(range(len(flows)))
    guard = 0
    while unfrozen:
        guard += 1
        if guard > 10 * len(flows) + 10:
            raise RuntimeError("progressive filling did not converge")
        # Largest equal increment every unfrozen flow can take.
        delta = math.inf
        for res, cap in residual.items():
            n = sum(1 for f in users[res] if f in unfrozen)
            if n:
                delta = min(delta, cap / n)
        for i in unfrozen:
            delta = min(delta, flows[i][2] - rate[i])
        if delta is math.inf:
            break
        delta = max(delta, 0.0)
        # Apply the increment and charge resources.
        for i in unfrozen:
            rate[i] += delta
        for res in residual:
            n = sum(1 for f in users[res] if f in unfrozen)
            residual[res] -= delta * n
        # Freeze flows at capped rate or on a saturated resource.
        newly_frozen = set()
        for i in unfrozen:
            src, dst, cap = flows[i]
            if rate[i] >= cap - _EPS:
                newly_frozen.add(i)
                continue
            for res in (("tx", src), ("rx", dst)):
                if residual[res] <= _EPS * default_bandwidth:
                    newly_frozen.add(i)
                    break
        if not newly_frozen:
            break
        unfrozen -= newly_frozen
    return rate


class _ReferenceJob(Event):
    """``ShareJob`` as it was (its ``Event`` slots set by ``super()``)."""

    __slots__ = ("server", "demand", "remaining", "weight", "started_at",
                 "finished_at", "label", "_cancelled")

    def __init__(
        self,
        server: "_ReferenceServer",
        demand: float,
        weight: float = 1.0,
        label: str = "",
    ):
        if demand < 0:
            raise ValueError(f"negative demand {demand}")
        if weight <= 0:
            raise ValueError(f"non-positive weight {weight}")
        super().__init__(server.env)
        self.server = server
        self.demand = float(demand)
        self.remaining = float(demand)
        self.weight = float(weight)
        self.label = label
        self.started_at = server.env._now
        self.finished_at: Optional[float] = None
        self._cancelled = False

    def cancel(self) -> None:
        """Remove the job from the server without completing it."""
        if self.triggered or self._cancelled:
            return
        self._cancelled = True
        self.server._remove(self, completed=False)


class _ReferenceServer:
    """``FairShareServer`` as it was, with its ``on_jobs_changed`` hook."""

    def __init__(self, env: Any, rate: float, name: str = ""):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._jobs: list = []
        self._last_update = env.now
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf
        # Accounting
        self._busy_time = 0.0      # integral of 1{jobs > 0} dt
        self._queue_time = 0.0     # integral of njobs dt (mean queue length)
        self._work_done = 0.0      # total demand served
        #: Optional hook invoked after the active-job set changes
        #: (lets an owner adjust the rate, e.g. CPU ↔ comm balancing).
        self.on_jobs_changed = None

    # -- public accounting -------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently being served (run-queue length)."""
        return len(self._jobs)

    @property
    def jobs(self) -> list:
        """Snapshot of the active jobs."""
        return list(self._jobs)

    def busy_time(self) -> float:
        """Cumulative time with at least one active job."""
        self._advance()
        return self._busy_time

    def queue_time(self) -> float:
        """Cumulative integral of the run-queue length over time."""
        self._advance()
        return self._queue_time

    def work_done(self) -> float:
        """Total demand served since creation."""
        self._advance()
        return self._work_done

    def set_rate(self, rate: float) -> None:
        """Change the service rate (accounts for work served so far)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._advance()
        self.rate = float(rate)
        self._reschedule()

    # -- job management ----------------------------------------------------
    def submit(
        self, demand: float, weight: float = 1.0, label: str = ""
    ) -> _ReferenceJob:
        """Add a job with ``demand`` work units; returns its completion event.

        Zero-demand jobs complete immediately.
        """
        self._advance()
        job = _ReferenceJob(self, demand, weight=weight, label=label)
        if job.remaining <= _EPS:
            job.finished_at = self.env._now
            job.succeed()
            return job
        self._jobs.append(job)
        self._notify_jobs_changed()
        self._reschedule()
        return job

    def _remove(self, job: _ReferenceJob, completed: bool) -> None:
        self._advance()
        if job in self._jobs:
            self._jobs.remove(job)
            self._notify_jobs_changed()
        if completed:
            job.finished_at = self.env._now
            job.succeed()
        self._reschedule()

    def _notify_jobs_changed(self) -> None:
        if self.on_jobs_changed is not None:
            self.on_jobs_changed()

    # -- internals -----------------------------------------------------
    def _advance(self) -> None:
        """Account for service performed since the last update."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if dt <= 0 or not jobs:
            return
        self._busy_time += dt
        self._queue_time += dt * len(jobs)
        total_w = sum([j.weight for j in jobs])
        step = dt * self.rate
        for job in jobs:
            served = step * (job.weight / total_w)
            if job.remaining < served:
                served = job.remaining
            job.remaining -= served
            self._work_done += served

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the earliest completion, if any."""
        jobs = self._jobs
        if not jobs:
            self._wakeup = None
            self._wakeup_time = math.inf
            return
        rate = self.rate
        total_w = sum([j.weight for j in jobs])
        delay = min([j.remaining / (rate * (j.weight / total_w))
                     for j in jobs])
        when = self.env._now + delay
        if self._wakeup is not None and not self._wakeup.processed:
            # An earlier wake-up that is still pending: keep it only if it
            # is not later than needed; stale wake-ups are ignored on fire.
            if self._wakeup_time <= when + _EPS:
                return
        wakeup = self.env.timeout(max(delay, 0.0))
        wakeup.callbacks.append(self._on_wakeup)
        self._wakeup = wakeup
        self._wakeup_time = when

    def _finished(self, job: _ReferenceJob) -> bool:
        """Done when under a nanosecond of full-rate service remains
        (absorbs float residue from ulp-sized clock errors at large
        simulation times)."""
        return job.remaining <= max(
            _EPS * max(1.0, job.demand), 1e-9 * self.rate
        )

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return  # stale timer
        self._advance()
        finished = [j for j in self._jobs if self._finished(j)]
        for job in finished:
            self._jobs.remove(job)
            job.remaining = 0.0
            job.finished_at = self.env._now
            job.succeed()
        if finished:
            self._notify_jobs_changed()
        self._reschedule()


class ReferenceCpu:
    """``Cpu`` as it was: a wrapper re-splitting its server's rate from
    the server's hook and from :meth:`set_comm_load`."""

    def __init__(self, env: Any, speed: float = 1.0, name: str = "cpu"):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.env = env
        self.speed = float(speed)
        self.name = name
        self._server = _ReferenceServer(env, rate=speed, name=name)
        self._server.on_jobs_changed = self._rebalance
        self._comm_load = 0.0
        self._comm_busy = 0.0   # ∫ busy-fraction-from-comm-alone dt
        self._comm_queue = 0.0  # ∫ comm demand dt (load contribution)
        self._comm_last = env.now
        self._comm_idle = True  # no job since ``_comm_last``

    # -- compute jobs -------------------------------------------------------
    def execute(
        self, work: float, weight: float = 1.0, label: str = ""
    ) -> _ReferenceJob:
        """Submit ``work`` CPU-seconds of compute; returns completion event."""
        return self._server.submit(work, weight=weight, label=label)

    @property
    def run_queue(self) -> float:
        """Instantaneous load: compute jobs plus protocol-processing load."""
        return self._server.active_jobs + self._comm_load

    @property
    def active_jobs(self) -> int:
        return self._server.active_jobs

    @property
    def jobs(self) -> list:
        return self._server.jobs

    # -- network-processing coupling -------------------------------------
    @property
    def comm_load(self) -> float:
        """Current protocol-processing demand (CPU-seconds per second)."""
        return self._comm_load

    def set_comm_load(self, load: float) -> None:
        """Set the protocol-processing demand; 0 clears it."""
        load = float(load)
        if not load > 0.0:
            if not self._comm_load:
                return  # idle stays idle: nothing to integrate
            load = 0.0
        elif load > MAX_COMM_LOAD:
            load = MAX_COMM_LOAD
        self._accumulate_comm()
        if load != self._comm_load:
            self._comm_load = load
            self._share()

    def _rebalance(self) -> None:
        """The job set changed: integrate up to now, then re-split."""
        self._accumulate_comm()
        self._share()

    def _share(self) -> None:
        """Re-split the CPU between comm processing and compute jobs.

        With ``n`` jobs and comm demand ``f``, jobs receive the fraction
        ``n / (n + f)`` of the CPU (equal-weight processor sharing with
        the protocol work).
        """
        n = self._server.active_jobs
        if n == 0:
            rate = self.speed  # no jobs to serve; rate is moot
        else:
            rate = self.speed * n / (n + self._comm_load)
        if rate != self._server.rate:
            self._server.set_rate(rate)

    def _accumulate_comm(self) -> None:
        """Integrate the busy time contributed by comm processing.

        While compute jobs run, the CPU is fully busy and the server's
        own busy integral covers it; comm contributes extra busy time
        only while no compute job is active — judged by the job set that
        held since the last call, not the one a change has just made.
        """
        now = self.env.now
        load = self._comm_load
        if load:  # a zero load integrates to exactly nothing
            dt = now - self._comm_last
            if dt > 0:
                self._comm_queue += load * dt
                if self._comm_idle:
                    self._comm_busy += (load if load < 1.0 else 1.0) * dt
        self._comm_last = now
        self._comm_idle = self._server.active_jobs == 0

    # -- accounting ---------------------------------------------------------
    def busy_time(self) -> float:
        """Cumulative CPU-busy time (compute presence + comm-only time)."""
        self._accumulate_comm()
        return self._server.busy_time() + self._comm_busy

    def compute_busy_time(self) -> float:
        """Cumulative time with at least one compute job."""
        return self._server.busy_time()

    def work_done(self) -> float:
        """Total compute work served (reference CPU-seconds)."""
        return self._server.work_done()

    def load_time(self) -> float:
        """Cumulative ∫ run-queue dt — the exact quantity the Unix
        load average estimates by sampling.  Differencing two reads
        gives a noise-free mean load over an interval."""
        self._accumulate_comm()
        return self._server.queue_time() + self._comm_queue


class ReferencePlane(HostPlane):
    """The host plane without its derived-column cache."""

    def analytic_rows(self) -> np.ndarray:
        return np.flatnonzero(self.arrays.analytic)

    def _analytic_runq(self, t: float, rows: np.ndarray) -> np.ndarray:
        a = self.arrays
        q = a.col("hog_count")[rows].copy()
        dt = self.sample_interval
        for family in ("duty", "mon"):
            period = a.col(f"{family}_period")[rows]
            busy = a.col(f"{family}_busy")[rows]
            phase = a.col(f"{family}_phase")[rows]
            active = np.flatnonzero(period > 0)
            if active.size:
                p, b = period[active], busy[active]
                x1 = t - phase[active]
                q[active] += (
                    self._on_time(x1, p, b)
                    - self._on_time(x1 - dt, p, b)
                ) / dt
        return q

    def _tick(self) -> None:
        a = self.arrays
        n = a.n
        if n == 0:
            self.ticks += 1
            return
        t = self.env.now
        runq = a.col("runq")
        hosts, rows = self._attached, self._attached_rows
        for row, host in zip(rows, hosts):
            runq[row] = host.cpu.run_queue
        analytic = self.analytic_rows()
        if analytic.size:
            runq[analytic] = self._analytic_runq(t, analytic)
        load1, load5, load15 = (a.col("load1"), a.col("load5"),
                                a.col("load15"))
        load1 *= self._k1
        load1 += runq * self._mk1
        load5 *= self._k5
        load5 += runq * self._mk5
        load15 *= self._k15
        load15 += runq * self._mk15
        for host, one, five, fifteen in zip(
            hosts, load1[rows].tolist(), load5[rows].tolist(),
            load15[rows].tolist(),
        ):
            view = host.loadavg
            view.one = one
            view.five = five
            view.fifteen = fifteen
        self.ticks += 1
        self.folds += n

    def analytic_sensor_columns(
        self, rows: np.ndarray
    ) -> Dict[str, np.ndarray]:
        a = self.arrays
        util = np.zeros(rows.shape[0])
        for family in ("duty", "mon"):
            period = a.col(f"{family}_period")[rows]
            busy = a.col(f"{family}_busy")[rows]
            active = period > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                util[active] += busy[active] / period[active]
        util = np.minimum(
            1.0, util + np.where(a.col("hog_count")[rows] > 0, 1.0, 0.0)
        )
        proc_count = (
            (a.col("duty_period")[rows] > 0).astype(float)
            + a.col("hog_count")[rows]
        )
        send = a.col("send_kbs")[rows]
        recv = a.col("recv_kbs")[rows]
        return {
            "loadavg1": a.col("load1")[rows],
            "loadavg5": a.col("load5")[rows],
            "loadavg15": a.col("load15")[rows],
            "cpu_util": util,
            "cpu_idle_pct": 100.0 * (1.0 - util),
            "proc_count": proc_count,
            "socket_count": np.full(rows.shape[0], float(BASE_SOCKETS)),
            "mem_avail_bytes": a.col("mem_avail_bytes")[rows],
            "mem_avail_pct": a.col("mem_avail_pct")[rows],
            "vmem_avail_pct": a.col("vmem_avail_pct")[rows],
            "disk_avail_bytes": a.col("disk_avail_bytes")[rows],
            "send_kbs": send,
            "recv_kbs": recv,
            "comm_mbs": (send + recv) / 1024.0,
        }
