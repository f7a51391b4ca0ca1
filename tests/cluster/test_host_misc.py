"""Host, memory, disk, process table, background loads, builder."""

import pytest

from repro.sim import Environment
from repro.cluster import (
    BulkTransferLoad,
    Cluster,
    CpuHog,
    Disk,
    DiskSet,
    DutyCycleLoad,
    Memory,
    ProcessTable,
)


# ----------------------------------------------------------------- Memory
def test_memory_percentages():
    mem = Memory(physical_total=100, swap_total=100)
    mem.physical_used = 50
    assert mem.physical_available_pct == pytest.approx(50.0)
    assert mem.virtual_available_pct == pytest.approx(75.0)


def test_memory_validation():
    with pytest.raises(ValueError):
        Memory(physical_total=0)
    with pytest.raises(ValueError):
        Memory(swap_total=-1)


# ------------------------------------------------------------------- Disk
def test_disk_accounting():
    d = Disk("/", total=100, used=60)
    assert d.available == 40
    with pytest.raises(ValueError):
        Disk("/", total=100, used=101)


def test_diskset():
    ds = DiskSet()
    ds.add("/", 100)
    assert ds.add("/home", 200, used=50).available == 150
    assert ds.total_available() == 250
    with pytest.raises(ValueError):
        ds.add("/", 100)


# ---------------------------------------------------------- ProcessTable
def test_proctable_spawn_exit_count():
    env = Environment()
    table = ProcessTable(env)
    p1 = table.spawn("init", kind="system")
    p2 = table.spawn("hog", kind="background")
    assert table.count() == 2
    assert table.count("background") == 1
    table.exit(p1.pid)
    assert table.count() == 1
    assert table.get(p2.pid).name == "hog"
    table.exit(9999)  # no-op


def test_proctable_migratable_filter():
    env = Environment()
    table = ProcessTable(env)
    table.spawn("plain")
    entry = table.spawn("app", kind="app", hpcm_runtime=object())
    migratable = table.migratable()
    assert [p.pid for p in migratable] == [entry.pid]
    assert entry.migration_enabled


def test_proctable_start_time_records_clock():
    env = Environment()
    table = ProcessTable(env)

    def later(env):
        yield env.timeout(42)
        return table.spawn("late")

    proc = env.process(later(env))
    env.run()
    assert proc.value.start_time == 42


# ------------------------------------------------------------------- Host
def test_host_construction_and_static_info():
    cluster = Cluster(n_hosts=2)
    host = cluster["ws1"]
    info = host.static_info.as_dict()
    assert info["hostname"] == "ws1"
    assert info["os"] == "SunOS 5.8"
    assert info["ip"].startswith("10.")
    assert host.up


def test_host_ip_deterministic():
    c1 = Cluster(n_hosts=1)
    c2 = Cluster(n_hosts=1)
    assert c1["ws1"].static_info.ip == c2["ws1"].static_info.ip


def test_host_crash_and_recover():
    cluster = Cluster(n_hosts=2)
    host = cluster["ws1"]
    host.crash()
    assert not host.up
    host.recover()
    assert host.up


# -------------------------------------------------------------- Background
def test_duty_cycle_load_converges_to_mean():
    # Jitter decorrelates the bursts from the 5 s load sampler;
    # without it, deterministic aliasing skews the measured average.
    cluster = Cluster(n_hosts=1, seed=7)
    host = cluster["ws1"]
    DutyCycleLoad(host, mean_load=0.25, period=2.0, jitter=0.4,
                  rng=cluster.rng.stream("duty"))
    cluster.run(until=900)
    assert host.load_averages()[0] == pytest.approx(0.25, abs=0.08)


def test_cpu_hog_loads_host():
    cluster = Cluster(n_hosts=1)
    host = cluster["ws1"]
    CpuHog(host, duration=float("inf"), count=2)
    cluster.run(until=300)
    assert host.load_averages()[0] == pytest.approx(2.0, abs=0.2)
    assert host.procs.count("background") == 2


def test_cpu_hog_finite_exits():
    cluster = Cluster(n_hosts=1)
    host = cluster["ws1"]
    hog = CpuHog(host, duration=10.0)
    cluster.run(until=50)
    assert host.procs.count("background") == 0
    assert hog.done.triggered


def test_cpu_hog_stop():
    cluster = Cluster(n_hosts=1)
    host = cluster["ws1"]
    hog = CpuHog(host, duration=float("inf"))
    cluster.run(until=5)
    hog.stop()
    cluster.run(until=10)
    assert host.cpu.active_jobs == 0


def test_bulk_transfer_load_rates_and_cpu():
    cluster = Cluster(n_hosts=2, cpu_per_byte=6.7e-8)
    a, b = cluster["ws1"], cluster["ws2"]
    bulk = BulkTransferLoad(a, b, rate=7.25e6)
    cluster.run(until=300)
    # Both directions capped at 7.25 MB/s.
    assert sum(f.rate for f in bulk.flows) == pytest.approx(2 * 7.25e6,
                                                            rel=0.01)
    # Protocol processing shows up as a ~0.97 load.
    assert a.load_averages()[0] == pytest.approx(0.97, abs=0.05)
    bulk.stop()
    cluster.run(until=600)
    assert a.cpu.run_queue == 0.0


def test_cluster_builder_basics():
    cluster = Cluster(n_hosts=3)
    assert [h.name for h in cluster] == ["ws1", "ws2", "ws3"]
    extra = cluster.add_host("gpu1", cpu_speed=4.0)
    assert extra.cpu.speed == 4.0
    with pytest.raises(ValueError):
        cluster.add_host("gpu1")
