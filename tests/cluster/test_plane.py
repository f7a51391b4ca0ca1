"""The batched host plane: bit-identity with per-host folding,
analytic rows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster import (
    Cluster,
    ClusterStateArrays,
    DutyCycleLoad,
    LoadAverage,
)
from repro.cluster.loadavg import decay_factors
from repro.monitor.sensors import BASE_SOCKETS
from repro.rules.vocabulary import METRICS

from ..callcount import count_calls
from .reference import per_host_samplers


# ---------------------------------------------------- fold bit-identity
#: Sample intervals including the k = exp(-interval/window) edges where
#: the interval equals a window (k = 1/e) and extreme ratios.
_INTERVALS = st.one_of(
    st.sampled_from([0.25, 1.0, 5.0, 7.5, 60.0, 300.0, 900.0, 1800.0]),
    st.floats(min_value=1e-3, max_value=3600.0, allow_nan=False),
)


@given(
    streams=hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 60)),
        elements=st.floats(min_value=0.0, max_value=1e9, width=64),
    ),
    interval=_INTERVALS,
)
@settings(max_examples=120, deadline=None)
def test_column_fold_bit_identical_to_scalar(streams, interval):
    """The vectorized fold produces ``LoadAverage.fold``'s exact bytes
    for every host, every sample, every interval."""
    n_hosts, n_samples = streams.shape
    oracles = [
        LoadAverage(sample_interval=interval) for _ in range(n_hosts)
    ]
    (k1, mk1), (k5, mk5), (k15, mk15) = decay_factors(interval)
    one = np.zeros(n_hosts)
    five = np.zeros(n_hosts)
    fifteen = np.zeros(n_hosts)
    for j in range(n_samples):
        runq = streams[:, j].copy()
        for host, oracle in enumerate(oracles):
            oracle.fold(runq[host])
        # The plane's exact in-place statement shape.
        one *= k1
        one += runq * mk1
        five *= k5
        five += runq * mk5
        fifteen *= k15
        fifteen += runq * mk15
    for host, oracle in enumerate(oracles):
        assert one[host] == oracle.one
        assert five[host] == oracle.five
        assert fifteen[host] == oracle.fifteen


def _duty_cluster(seed: int, n_hosts: int = 6):
    """A cluster under jittered duty-cycle load, folded twice: by the
    plane (production) and by one reference sampler per host."""
    cluster = Cluster(n_hosts=n_hosts, seed=seed)
    for i, host in enumerate(cluster):
        DutyCycleLoad(
            host, mean_load=0.08 + 0.07 * i, period=0.6 + 0.25 * i,
            jitter=0.5, rng=cluster.rng.stream(f"duty-{host.name}"),
        )
    return cluster, per_host_samplers(cluster)


def verify(cluster, reference):
    """Batched ≡ per-host, host by host, to the last bit."""
    for host in cluster:
        assert host.loadavg.as_tuple() == reference[host.name].as_tuple(), (
            f"host plane fold diverged on {host.name} "
            f"at t={cluster.env.now}"
        )


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_whole_sim_scalar_equals_batched(seed):
    """The same simulated workload folded per host
    (``LoadAverage.fold``) and folded as columns: identical bytes."""
    cluster, reference = _duty_cluster(seed)
    cluster.run(until=171.0)
    verify(cluster, reference)
    # And the loads actually moved — the comparison is not 0 == 0.
    assert any(host.loadavg.one > 0 for host in cluster)


def test_auto_writes_back_to_host_views():
    cluster, _ = _duty_cluster(seed=3)
    cluster.run(until=60.0)
    a = cluster.plane.arrays
    for host in cluster:
        row = a.row_of(host.name)
        assert host.loadavg.one == a.col("load1")[row]
        assert host.loadavg.five == a.col("load5")[row]
        assert host.loadavg.fifteen == a.col("load15")[row]


# -------------------------------------------------- the differential itself
def test_verify_mode_runs_clean():
    """Checked at every tick of a run, not only at its end."""
    cluster, reference = _duty_cluster(seed=5)
    for until in np.arange(5.5, 90.0, 5.0):
        cluster.run(until=float(until))
        verify(cluster, reference)
    assert cluster.plane.ticks >= 17
    assert cluster.plane.folds == cluster.plane.ticks * len(cluster)


def test_verify_mode_catches_corruption():
    """The differential has teeth: one corrupted bit in a batched
    column is caught."""
    cluster, reference = _duty_cluster(seed=5)
    cluster.run(until=30.0)
    cluster.plane.arrays.col("load1")[0] += 1e-9
    cluster.run(until=60.0)
    with pytest.raises(AssertionError, match="diverged"):
        verify(cluster, reference)


# ---------------------------------------------------------- analytic rows
def test_analytic_load_converges_to_mean_alias_free():
    """Windowed-mean occupancy converges to mean_load for every
    phase/period — including periods that divide the 5 s grid, which a
    point-sampled model would alias."""
    cluster = Cluster(n_hosts=1, seed=9)
    means = {}
    for i, (mean, period, phase) in enumerate([
        (0.3, 2.0, 0.0),    # divides the grid: the aliasing trap
        (0.55, 2.5, 1.3),   # divides the grid differently
        (0.12, 0.7, 0.2),
        (0.4, 3.3, 2.9),
    ]):
        name = f"an{i}"
        cluster.add_analytic_host(name, mean_load=mean, period=period,
                                  phase=phase)
        means[name] = mean
    cluster.run(until=600.0)
    a = cluster.plane.arrays
    for name, mean in means.items():
        load1 = a.col("load1")[a.row_of(name)]
        assert load1 == pytest.approx(mean, abs=0.01)


def test_hog_injection_and_clear():
    cluster = Cluster(n_hosts=1, seed=2)
    cluster.add_analytic_host("an0", mean_load=0.2)
    cluster.plane.inject_hogs("an0", 2)
    cluster.run(until=300.0)
    a = cluster.plane.arrays
    assert a.col("load1")[a.row_of("an0")] == pytest.approx(2.2, abs=0.05)
    cluster.plane.clear_hogs("an0")
    cluster.run(until=900.0)
    assert a.col("load1")[a.row_of("an0")] == pytest.approx(0.2, abs=0.05)


def test_analytic_sensor_columns_match_sensor_vocabulary():
    cluster = Cluster(n_hosts=1, seed=0)
    cluster.add_analytic_host("an0", mean_load=0.25, period=2.0)
    cluster.run(until=30.0)
    plane = cluster.plane
    cols = plane.analytic_sensor_columns(plane.analytic_rows())
    assert set(cols) == set(METRICS)
    assert cols["socket_count"][0] == float(BASE_SOCKETS)
    assert cols["cpu_util"][0] == pytest.approx(0.25)
    assert cols["cpu_idle_pct"][0] == pytest.approx(75.0)
    assert cols["mem_avail_bytes"][0] > 0
    assert cols["disk_avail_bytes"][0] > 0
    # Hogs saturate utilization.
    plane.inject_hogs("an0", 1)
    cols = plane.analytic_sensor_columns(plane.analytic_rows())
    assert cols["cpu_util"][0] == 1.0


def test_plane_base_sockets_matches_sensors():
    from repro.cluster.plane import BASE_SOCKETS as PLANE_BASE_SOCKETS

    assert PLANE_BASE_SOCKETS == BASE_SOCKETS


def test_analytic_hosts_are_rows_not_objects(monkeypatch):
    """An analytic host is a name, a plane row and a spec until
    somebody asks for the ``Host``; then exactly one is built, on the
    row it already had."""
    from collections import Counter

    import repro.cluster.builder as builder_mod
    import repro.cluster.host as host_mod
    from repro.cluster.network import Network
    from repro.monitor.sensors import SensorSuite

    suite = SensorSuite(Cluster(n_hosts=1, seed=0)["ws1"])
    idle = {**suite.memory(), **suite.disk()}

    built = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            built[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(builder_mod, "Host",
                        counted("Host", builder_mod.Host))
    for part in ("Cpu", "Memory", "DiskSet", "ProcessTable"):
        monkeypatch.setattr(host_mod, part,
                            counted(part, getattr(host_mod, part)))
    monkeypatch.setattr(Network, "add_host",
                        counted("port", Network.add_host))

    cluster = Cluster(n_hosts=1, seed=0)
    built.clear()
    for i in range(2048):
        cluster.add_analytic_host(
            f"an{i}", mean_load=0.1 + 0.4 * (i % 9) / 9, period=2.0,
            phase=0.01 * (i % 50),
        )
    assert not built
    assert len(cluster) == 2049
    assert cluster.names()[:2] == ["ws1", "an0"]
    assert cluster.static_info("an7").hostname == "an7"
    a = cluster.plane.arrays
    row = a.row_of("an7")
    # The pinned sensor columns are a fresh default host's readings,
    # bit for bit.
    for key, value in idle.items():
        assert a.col(key)[row] == float(value), key
    cluster.run(until=60.0)
    assert not built

    host = cluster.host("an7")
    assert built == {"Host": 1, "Cpu": 1, "Memory": 1, "DiskSet": 1,
                     "ProcessTable": 1, "port": 1}
    assert cluster.network.has_host("an7")
    assert not cluster.network.has_host("an8")
    assert a.row_of("an7") == row and a.n == 2049
    # The load average shows the row's current loads from the moment
    # the host exists, not zeros until the next tick.
    assert host.loadavg.as_tuple() == (
        a.col("load1")[row], a.col("load5")[row], a.col("load15")[row])
    assert host.loadavg.one > 0.0
    assert cluster.host("an7") is host and cluster["an7"] is host
    assert built["Host"] == 1
    # ...and follows them from then on.
    before = host.loadavg.as_tuple()
    cluster.run(until=90.0)
    assert host.loadavg.as_tuple() != before
    assert host.loadavg.one == a.col("load1")[row]
    assert set(cluster.hosts) == {"ws1", "an7"}


# ----------------------------------------------------------- validation
def test_set_analytic_validation():
    cluster = Cluster(n_hosts=1, seed=0)
    with pytest.raises(ValueError, match="mean_load"):
        cluster.add_analytic_host("an0", mean_load=1.0)
    with pytest.raises(ValueError, match="period"):
        cluster.add_analytic_host("an1", mean_load=0.2, period=0.0)
    with pytest.raises(ValueError, match="already"):
        cluster.add_analytic_host("ws1", mean_load=0.1)
    # A rejected host leaves no row behind.
    assert cluster.names() == ["ws1"]


@pytest.mark.parametrize("kwargs, names, match", [
    ({"mean_load": [0.1, 1.0, 0.2]}, ["an0", "an1", "an2"], "mean_load"),
    ({"mean_load": [0.1, math.nan, 0.2]}, ["an0", "an1", "an2"],
     "mean_load"),
    ({"mean_load": 0.2, "period": [2.0, 0.0, 2.0]},
     ["an0", "an1", "an2"], "period"),
    ({"mean_load": 0.2}, ["an0", "an1", "an0"], "'an0' already"),
    ({"mean_load": 0.2}, ["an0", "ws1", "an2"], "'ws1' already"),
    # A per-row array that does not fit the batch.
    ({"mean_load": [0.1, 0.2]}, ["an0", "an1", "an2"], "one per name"),
    ({"mean_load": 0.2, "phase": [[0.0, 0.1, 0.2]]},
     ["an0", "an1", "an2"], "one per name"),
])
def test_a_refused_batch_leaves_nothing_behind(kwargs, names, match):
    """The batch is checked whole before any row is added: the singular
    call's message, and a cluster exactly as it was."""
    cluster = Cluster(n_hosts=2, seed=0)
    cluster.add_analytic_hosts(["pre0", "pre1"], mean_load=[0.1, 0.3])
    a = cluster.plane.arrays
    columns = {name: a.col(name).copy() for name in a._COLUMNS}
    analytic, hosts = a.analytic.copy(), list(a.hosts)
    deferred = dict(cluster._deferred)
    with pytest.raises(ValueError, match=match):
        cluster.add_analytic_hosts(names, **kwargs)
    assert len(cluster) == 4 and a.n == 4
    assert a.hosts == hosts == cluster.names()
    assert all(a.row_of(n) is None for n in names if n != "ws1")
    assert cluster._deferred == deferred
    for name, before in columns.items():
        assert np.array_equal(a.col(name), before), name
    assert np.array_equal(a.analytic, analytic)
    # ...and still takes the batch once it is right.
    cluster.add_analytic_hosts(["an0", "an1", "an2"], mean_load=0.2)
    assert cluster.names()[4:] == ["an0", "an1", "an2"]
    assert a.col("duty_busy")[4:].tolist() == [0.4, 0.4, 0.4]


def test_hog_validation():
    cluster = Cluster(n_hosts=1, seed=0)
    with pytest.raises(KeyError):
        cluster.plane.inject_hogs("nope")
    with pytest.raises(ValueError, match="analytic"):
        cluster.plane.inject_hogs("ws1")  # backed row
    with pytest.raises(KeyError):
        cluster.plane.clear_hogs("nope")


def test_arrays_growth_and_duplicates():
    arrays = ClusterStateArrays(capacity=2)
    for i in range(9):
        assert arrays.add_row(f"h{i}") == i
    assert len(arrays) == 9
    assert arrays.host_at(4) == "h4"
    assert arrays.row_of("h7") == 7
    assert arrays.row_of("nope") is None
    with pytest.raises(ValueError, match="already"):
        arrays.add_row("h3")
    with pytest.raises(KeyError):
        arrays.col("no_such_column")
    assert arrays.col("load1").shape == (9,)


def test_a_batch_reserves_its_capacity_in_one_step():
    """One reallocation however far the batch overshoots; single
    appends keep doubling."""
    arrays = ClusterStateArrays(capacity=2)
    grown = []
    grow = arrays._grow
    arrays._grow = lambda need: (grown.append(need), grow(need))
    assert arrays.add_rows([f"h{i}" for i in range(1000)]) == 0
    assert grown == [1000] and arrays._analytic.shape == (1000,)
    assert arrays.add_row("one-more") == 1000
    assert grown == [1000, 1001] and arrays._analytic.shape == (2000,)
    assert arrays.add_rows([]) == 1001 and len(arrays) == 1001
    assert arrays.row_of("h999") == 999
    assert arrays.col("load1").shape == (1001,)
    assert not arrays.col("load1").any()


def test_call_count_of_building_analytic_hosts_is_flat_in_rows():
    """A batch of analytic hosts is built by column: 4 096 names make
    at most twice the calls 64 names do (measured: 107 at either size;
    the per-host loop this replaced made 22 calls per host, 90 602)."""
    counts = {}
    for n_hosts in (64, 4096):
        cluster = Cluster(n_hosts=2, seed=0)
        names = [f"an{i}" for i in range(n_hosts)]
        loads = np.linspace(0.05, 0.5, n_hosts)
        counts[n_hosts] = count_calls(lambda: cluster.add_analytic_hosts(
            names, mean_load=loads, period=2.0, phase=2.0 * loads))
        assert len(cluster) == n_hosts + 2
        assert len(cluster._deferred) == n_hosts
    assert counts[4096] <= 2 * counts[64], counts


def test_auto_mode_single_plane_process():
    """One fold process per cluster, none per host."""
    before = Cluster(n_hosts=1, seed=0)
    after = Cluster(n_hosts=8, seed=0)
    assert after.plane._proc is not None
    assert len(after.env._queue) == len(before.env._queue)


# ----------------------------------------------------- mega-cluster smoke
def test_mega_cluster_smoke_4096_hosts():
    """The CI-scale smoke: 4096 analytic rows fold and settle within a
    short run — O(1000s) hosts cost one process, not thousands."""
    cluster = Cluster(n_hosts=2, seed=13)
    rng = cluster.rng.stream("smoke-loads")
    for i in range(3, 4097):
        cluster.add_analytic_host(
            f"ws{i}", mean_load=0.05 + 0.5 * float(rng.random()),
            period=2.0, phase=2.0 * float(rng.random()),
        )
    cluster.run(until=120.0)
    plane = cluster.plane
    assert plane.arrays.n == 4096
    assert plane.folds == plane.ticks * 4096
    load1 = plane.arrays.col("load1")
    assert np.all(np.isfinite(load1))
    assert 0.05 < float(np.mean(load1[2:])) < 0.6
    # 1-minute decay: exp(-5/60) per 5 s tick, the shared constant.
    assert plane._k1 == math.exp(-5.0 / 60.0)
