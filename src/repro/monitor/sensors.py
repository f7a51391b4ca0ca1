"""Sensors: the dynamic system information of paper §3.1.

One :class:`SensorSuite` per host samples processor utilization and
load, memory state, disk usage and communication rates.  Rate sensors
(CPU utilization, KB/s) are windowed: each call reports the average
since the previous call, exactly like differencing two reads of
``vmstat`` counters.  :func:`SimScriptEngine` puts a suite behind the
script engine of :mod:`.scripts`; live mode's engine reads ``/proc``
instead and loads nothing of this module.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..cluster.plane import BASE_SOCKETS
from ..rules.vocabulary import script_metric
from .scripts import SnapshotScriptEngine

#: Additional established sockets per active bulk flow.
SOCKETS_PER_FLOW = 2


class SensorSuite:
    """Stateful sensor bank for one host."""

    def __init__(self, host: Any):
        self.host = host
        self._cpu_state: Optional[dict] = None
        self._last_tx: Optional[tuple] = None
        self._last_rx: Optional[tuple] = None

    # -- individual sensors ------------------------------------------------
    def cpu_utilization(self) -> float:
        """Mean utilization since the last call, in [0, 1]."""
        util, self._cpu_state = self.host.cpu.utilization_sample(
            self._cpu_state
        )
        return util

    def process_count(self) -> int:
        return self.host.procs.count()

    def memory(self) -> dict:
        mem = self.host.memory
        return {
            "mem_avail_bytes": mem.physical_available,
            "mem_avail_pct": mem.physical_available_pct,
            "vmem_avail_pct": mem.virtual_available_pct,
        }

    def disk(self) -> dict:
        return {"disk_avail_bytes": self.host.disks.total_available()}

    def comm_rates(self) -> dict:
        """Send/receive rates since the last call (KB/s and MB/s)."""
        now = self.host.env.now
        tx = self.host.bytes_sent()
        rx = self.host.bytes_received()
        send_kbs = recv_kbs = 0.0
        if self._last_tx is not None:
            t0, tx0 = self._last_tx
            _, rx0 = self._last_rx
            dt = now - t0
            if dt > 0:
                send_kbs = (tx - tx0) / dt / 1024.0
                recv_kbs = (rx - rx0) / dt / 1024.0
        self._last_tx = (now, tx)
        self._last_rx = (now, rx)
        return {
            "send_kbs": send_kbs,
            "recv_kbs": recv_kbs,
            "comm_mbs": (send_kbs + recv_kbs) / 1024.0,
        }

    def socket_count(self, state: str = "ESTABLISHED") -> int:
        """netstat-style socket count (simulated from active flows)."""
        flows = sum(
            1 for f in self.host.network.active_flows()
            if self.host.name in (f.src, f.dst)
        )
        if state.upper() == "ESTABLISHED":
            return BASE_SOCKETS + SOCKETS_PER_FLOW * flows
        return flows  # other states: just the transient flows

    # -- full snapshot -----------------------------------------------------
    def sample(self) -> Dict[str, float]:
        """One coherent reading of every metric in
        :data:`repro.rules.vocabulary.METRICS`."""
        one, five, fifteen = self.host.load_averages()
        util = self.cpu_utilization()
        snapshot: Dict[str, float] = {
            "loadavg1": one,
            "loadavg5": five,
            "loadavg15": fifteen,
            "cpu_util": util,
            "cpu_idle_pct": 100.0 * (1.0 - util),
            "proc_count": float(self.process_count()),
            "socket_count": float(self.socket_count()),
        }
        snapshot.update(self.memory())
        snapshot.update(self.disk())
        snapshot.update(self.comm_rates())
        return snapshot


def SimScriptEngine(host: Any) -> SnapshotScriptEngine:
    """The engine of one simulated host: its sensor suite as the
    sampler, plus the one query a snapshot cannot answer — netstat
    socket states other than ESTABLISHED, counted live."""
    sensors = SensorSuite(host)
    engine = SnapshotScriptEngine(sensors.sample)

    def socket_states(param: str) -> float:
        try:
            return engine.metric(script_metric("ntStatIpv4.sh", param))
        except ValueError:
            return sensors.socket_count(param.strip())

    engine.register("ntStatIpv4.sh", socket_states)
    return engine
