"""Host performance recorder — the paper's standalone "sysinfo" sensor.

§5.1: "We monitor the host performance with or without the rescheduler
using a standalone performance sensor, named 'sysinfo', for performance
data collection ... The performance data is gathered at an interval of
10 seconds."  The recorder is deliberately independent of the
rescheduler's own monitor so overhead measurements don't disturb the
system under test.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .timeseries import TimeSeries

DEFAULT_RECORD_INTERVAL = 10.0

#: Samples buffered per metric before a bulk ``append_many`` flush.
#: Within a flush window appends are plain list appends; the series
#: (and its array-view invalidation) is touched once per batch.
FLUSH_EVERY = 32

#: The metrics every recorder tracks per host.  ``load_true`` is the
#: exact windowed mean of the run queue (∫queue dt / Δt) — what the
#: sampled load averages estimate, without their sampling noise.
RECORDED_METRICS = (
    "loadavg1", "loadavg5", "cpu_util", "send_kbs", "recv_kbs",
    "run_queue", "proc_count", "load_true",
)


class HostRecorder:
    """Samples one host's performance counters on a fixed interval."""

    def __init__(
        self,
        host: Any,
        interval: float = DEFAULT_RECORD_INTERVAL,
        metrics: tuple = RECORDED_METRICS,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.host = host
        self.env = host.env
        self.interval = float(interval)
        self._series: Dict[str, TimeSeries] = {
            m: TimeSeries(f"{host.name}.{m}") for m in metrics
        }
        #: Per-metric (times, values) staging lists, flushed in bulk
        #: through :meth:`TimeSeries.append_many`.
        self._pending: Dict[str, tuple] = {
            m: ([], []) for m in metrics
        }
        self._cpu_state: Optional[dict] = None
        self._last_tx: Optional[tuple] = None
        self._last_rx: Optional[tuple] = None
        self._last_load: Optional[tuple] = None
        self._stopped = False
        self.proc = self.env.process(self._run(), name=f"rec:{host.name}")

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            yield self.interval  # bare-delay fast path
            self._sample()

    def _sample(self) -> None:
        now = self.env.now
        host = self.host
        one, five, _ = host.load_averages()
        values = {
            "loadavg1": one,
            "loadavg5": five,
            "run_queue": host.cpu.run_queue,
            "proc_count": float(host.procs.count()),
        }
        util, self._cpu_state = host.cpu.utilization_sample(self._cpu_state)
        values["cpu_util"] = util
        load_int = host.cpu.load_time()
        load_true = 0.0
        if self._last_load is not None:
            dt = now - self._last_load[0]
            if dt > 0:
                load_true = (load_int - self._last_load[1]) / dt
        self._last_load = (now, load_int)
        values["load_true"] = load_true
        tx, rx = host.bytes_sent(), host.bytes_received()
        send_kbs = recv_kbs = 0.0
        if self._last_tx is not None:
            dt = now - self._last_tx[0]
            if dt > 0:
                send_kbs = (tx - self._last_tx[1]) / dt / 1024.0
                recv_kbs = (rx - self._last_rx[1]) / dt / 1024.0
        self._last_tx, self._last_rx = (now, tx), (now, rx)
        values["send_kbs"] = send_kbs
        values["recv_kbs"] = recv_kbs
        for metric, value in values.items():
            pending = self._pending.get(metric)
            if pending is not None:
                pending[0].append(now)
                pending[1].append(value)
                if len(pending[0]) >= FLUSH_EVERY:
                    self._flush(metric)

    def _flush(self, metric: str) -> None:
        times, vals = self._pending[metric]
        if times:
            self._series[metric].append_many(times, vals)
            times.clear()
            vals.clear()

    def __getitem__(self, metric: str) -> TimeSeries:
        self._flush(metric)
        return self._series[metric]
