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
def test_memory_allocate_and_free():
    mem = Memory(physical_total=100, swap_total=50)
    mem.allocate(80)
    assert mem.physical_used == 80
    mem.allocate(40)  # 20 physical + 20 swap
    assert mem.physical_used == 100 and mem.swap_used == 20
    mem.free(40)
    assert mem.swap_used == 0 and mem.physical_used == 80


def test_memory_exhaustion_raises():
    mem = Memory(physical_total=100, swap_total=50)
    with pytest.raises(MemoryError):
        mem.allocate(200)
    assert mem.virtual_used == 0  # nothing leaked


def test_memory_percentages():
    mem = Memory(physical_total=100, swap_total=100)
    mem.allocate(50)
    assert mem.physical_available_pct == pytest.approx(50.0)
    assert mem.virtual_available_pct == pytest.approx(75.0)


def test_memory_can_fit():
    mem = Memory(physical_total=100, swap_total=0)
    assert mem.can_fit(100)
    assert not mem.can_fit(101)


def test_memory_validation():
    with pytest.raises(ValueError):
        Memory(physical_total=0)
    mem = Memory(physical_total=10, swap_total=10)
    with pytest.raises(ValueError):
        mem.allocate(-1)
    with pytest.raises(ValueError):
        mem.free(-1)


# ------------------------------------------------------------------- Disk
def test_disk_write_delete():
    d = Disk("/", total=100)
    d.write(60)
    assert d.available == 40
    assert d.used_pct == pytest.approx(60.0)
    d.delete(30)
    assert d.used == 30


def test_disk_full_raises():
    d = Disk("/", total=100, used=90)
    with pytest.raises(OSError):
        d.write(20)


def test_diskset():
    ds = DiskSet()
    ds.add("/", 100)
    ds.add("/home", 200, used=50)
    assert ds.mounts() == ["/", "/home"]
    assert ds.total_available() == 250
    assert "/" in ds and "/tmp" not in ds
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
        table.spawn("late")

    env.process(later(env))
    env.run()
    assert table.entries()[0].start_time == 42


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
    assert host.loadavg.one == pytest.approx(0.25, abs=0.08)


def test_cpu_hog_loads_host():
    cluster = Cluster(n_hosts=1)
    host = cluster["ws1"]
    CpuHog(host, duration=float("inf"), count=2)
    cluster.run(until=300)
    assert host.loadavg.one == pytest.approx(2.0, abs=0.2)
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
    assert bulk.current_rate == pytest.approx(2 * 7.25e6, rel=0.01)
    # Protocol processing shows up as a ~0.97 load.
    assert a.loadavg.one == pytest.approx(0.97, abs=0.05)
    bulk.stop()
    cluster.run(until=600)
    assert a.cpu.comm_load == 0.0


def test_cluster_builder_basics():
    cluster = Cluster(n_hosts=3, host_prefix="node")
    assert len(cluster) == 3
    assert sorted(h.name for h in cluster) == ["node1", "node2", "node3"]
    extra = cluster.add_host("gpu1", cpu_speed=4.0)
    assert extra.cpu.speed == 4.0
    with pytest.raises(ValueError):
        cluster.add_host("gpu1")
