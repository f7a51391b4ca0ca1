"""Experiment driver for Figures 5 and 6: rescheduler overhead (§5.1).

Two workstations run a light baseline workload (duty-cycle CPU activity
around the paper's idle load of ~0.256 plus steady chatter traffic of
~5.8/6.0 KB/s).  The experiment runs twice — with and without the
rescheduler deployed (monitor+commander+registry on ws1, monitor+
commander on ws2) — and an independent "sysinfo" recorder samples load
averages, CPU utilization and communication rates every 10 seconds.

Paper values: 1-minute load 0.256 → 0.266 (+3.9 %), 5-minute load
0.262 → 0.263 (+0.4 %), CPU utilization overhead 3.46 %, send/recv
5.82 / 5.99 KB/s with *no visible communication overhead*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster.background import ChatterLoad, DutyCycleLoad
from ..cluster.builder import Cluster
from ..core.policy import policy_2
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..metrics.recorder import HostRecorder
from ..metrics.timeseries import TimeSeries


@dataclass
class OverheadRun:
    """Measured series of one configuration (with or without)."""

    load1: TimeSeries
    load5: TimeSeries
    load_true: TimeSeries
    cpu_util: TimeSeries
    send_kbs: TimeSeries
    recv_kbs: TimeSeries


@dataclass
class OverheadResult:
    """Figures 5 + 6, both configurations plus derived overheads."""

    with_rs: OverheadRun
    without_rs: OverheadRun
    #: Measurement window start (lets load averages converge first).
    settle: float

    def _mean(self, series: TimeSeries) -> float:
        return series.mean(t_min=self.settle)

    # -- Figure 5 numbers -------------------------------------------------
    # Means come from the exact run-queue time integral (`load_true`):
    # the sampled 1/5-minute load averages estimate the same quantity
    # but their point-sampling noise (~±10 % here) would swamp a ~4 %
    # overhead.  The sampled series remain available for plotting.
    @property
    def load1_with(self) -> float:
        return self._mean(self.with_rs.load_true)

    @property
    def load1_without(self) -> float:
        return self._mean(self.without_rs.load_true)

    @property
    def load1_overhead(self) -> float:
        return self.load1_with / self.load1_without - 1.0

    @property
    def load5_overhead(self) -> float:
        """With exact integrals the 1- and 5-minute estimates coincide;
        kept for report symmetry with the paper's two numbers."""
        return self.load1_overhead

    @property
    def cpu_overhead(self) -> float:
        return (self._mean(self.with_rs.cpu_util)
                / self._mean(self.without_rs.cpu_util) - 1.0)

    # -- Figure 6 numbers -------------------------------------------------
    @property
    def send_kbs_with(self) -> float:
        return self._mean(self.with_rs.send_kbs)

    @property
    def send_kbs_without(self) -> float:
        return self._mean(self.without_rs.send_kbs)

    @property
    def recv_kbs_with(self) -> float:
        return self._mean(self.with_rs.recv_kbs)

    @property
    def recv_kbs_without(self) -> float:
        return self._mean(self.without_rs.recv_kbs)

    @property
    def comm_overhead(self) -> float:
        base = self.send_kbs_without + self.recv_kbs_without
        loaded = self.send_kbs_with + self.recv_kbs_with
        return loaded / base - 1.0


def _build_baseline(cluster: Cluster) -> None:
    """The idle-cluster workload both configurations share.

    Short, jittered bursts: many bursts per load-average window keep
    the point-sampled run-queue estimate low-variance, so the small
    rescheduler overhead is measurable above the sampling noise.
    """
    ws1, ws2 = cluster["ws1"], cluster["ws2"]
    DutyCycleLoad(ws1, mean_load=0.25, period=0.5, jitter=0.5,
                  rng=cluster.rng.stream("duty-ws1"), name="daemons")
    DutyCycleLoad(ws2, mean_load=0.25, period=0.5, jitter=0.5,
                  rng=cluster.rng.stream("duty-ws2"), name="daemons")
    # Asymmetric chatter so ws1 sends ≈ 5.8 and receives ≈ 6.0 KB/s.
    ChatterLoad(ws1, ws2, bytes_out=2000, bytes_back=2060,
                interval=0.335, name="nfs")


def _add_analytic_hosts(cluster: Cluster, hosts: int) -> None:
    """Grow the cluster to ``hosts`` rows with analytic plane hosts.

    ws3..wsN carry deterministic, varied duty-cycle loads modelled in
    closed form by the batched host plane — thousands of them cost one
    vectorized fold per tick, so fig5-style cells scale to mega-cluster
    host counts without changing the two instrumented workstations.
    """
    draws = cluster.rng.stream("analytic-hosts").random(
        2 * (hosts - 2)).reshape(-1, 2)
    cluster.add_analytic_hosts(
        [f"ws{i}" for i in range(3, hosts + 1)],
        mean_load=0.05 + 0.5 * draws[:, 0],
        period=2.0,
        phase=2.0 * draws[:, 1],
    )


def _run_once(
    with_rescheduler: bool,
    duration: float,
    seed: int,
    interval: float,
    cycle_cost: Optional[float],
    hosts: int = 2,
) -> OverheadRun:
    cluster = Cluster(n_hosts=2, seed=seed)
    _build_baseline(cluster)
    if hosts > 2:
        _add_analytic_hosts(cluster, hosts)
    if with_rescheduler:
        config = ReschedulerConfig(interval=interval)
        if cycle_cost is not None:
            config.cycle_cost = cycle_cost
        Rescheduler(cluster, policy=policy_2(), config=config,
                    registry_host="ws1")
    recorder = HostRecorder(cluster["ws1"], interval=10.0)
    cluster.run(until=duration)
    return OverheadRun(
        load1=recorder["loadavg1"],
        load5=recorder["loadavg5"],
        load_true=recorder["load_true"],
        cpu_util=recorder["cpu_util"],
        send_kbs=recorder["send_kbs"],
        recv_kbs=recorder["recv_kbs"],
    )


def run_overhead_experiment(
    duration: float = 3600.0,
    seed: int = 0,
    interval: float = 10.0,
    cycle_cost: Optional[float] = None,
    settle: float = 900.0,
    hosts: int = 2,
) -> OverheadResult:
    """Run both configurations and derive the Figure 5/6 quantities.

    ``hosts`` > 2 surrounds the two instrumented workstations with
    analytic plane hosts (the ``--set hosts=N`` sweep axis) — the
    measured overheads stay a two-host comparison while the registry
    and monitor hub carry an N-host cluster.
    """
    if duration <= settle:
        raise ValueError("duration must exceed the settle window")
    if hosts < 2:
        raise ValueError("the overhead experiment needs >= 2 hosts")
    return OverheadResult(
        with_rs=_run_once(True, duration, seed, interval, cycle_cost,
                          hosts=hosts),
        without_rs=_run_once(False, duration, seed, interval, cycle_cost,
                             hosts=hosts),
        settle=settle,
    )
