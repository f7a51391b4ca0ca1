"""Sensors and the script engine."""

import pytest

from repro.cluster import Cluster, CpuHog
from repro.monitor import SensorSuite, SimScriptEngine


def test_sample_has_all_metrics():
    cluster = Cluster(n_hosts=2, seed=0)
    suite = SensorSuite(cluster["ws1"])
    cluster.run(until=20)
    snap = suite.sample()
    for key in ("loadavg1", "loadavg5", "loadavg15", "cpu_util",
                "cpu_idle_pct", "proc_count", "socket_count",
                "mem_avail_pct", "vmem_avail_pct", "disk_avail_bytes",
                "send_kbs", "recv_kbs", "comm_mbs"):
        assert key in snap, key


def test_cpu_utilization_windowed():
    cluster = Cluster(n_hosts=1, seed=0)
    host = cluster["ws1"]
    suite = SensorSuite(host)
    suite.sample()  # establish window start

    def burn(env):
        yield host.cpu.execute(5.0)

    cluster.env.process(burn(cluster.env))
    cluster.run(until=10)
    util = suite.sample()["cpu_util"]
    assert util == pytest.approx(0.5, abs=0.02)
    assert suite.sample()["cpu_util"] == pytest.approx(0.0, abs=0.01)


def test_comm_rates_windowed():
    cluster = Cluster(n_hosts=2, seed=0, cpu_per_byte=0.0)
    suite = SensorSuite(cluster["ws1"])
    suite.sample()
    flow = cluster.network.open_stream("ws1", "ws2", rate_cap=1024 * 100)
    cluster.run(until=10)
    snap = suite.sample()
    assert snap["send_kbs"] == pytest.approx(100.0, rel=0.05)
    assert snap["recv_kbs"] == pytest.approx(0.0, abs=0.1)


def test_socket_count_tracks_flows():
    cluster = Cluster(n_hosts=2, seed=0, cpu_per_byte=0.0)
    suite = SensorSuite(cluster["ws1"])
    base = suite.socket_count()
    cluster.network.open_stream("ws1", "ws2")
    assert suite.socket_count() > base


def test_proc_count():
    cluster = Cluster(n_hosts=1, seed=0)
    host = cluster["ws1"]
    suite = SensorSuite(host)
    before = suite.process_count()
    CpuHog(host, count=3)
    assert suite.process_count() == before + 3


# ------------------------------------------------------- script engine
def test_engine_maps_paper_scripts():
    cluster = Cluster(n_hosts=2, seed=0)
    engine = SimScriptEngine(cluster["ws1"])
    cluster.run(until=30)
    engine.refresh()
    assert 0 <= engine("processorStatus.sh") <= 100
    assert engine("procCount.sh") >= 0
    assert engine("ntStatIpv4.sh", "ESTABLISHED") >= 0
    assert engine("loadAvg.sh") >= 0
    assert engine("loadAvg.sh", "5") >= 0
    assert engine("netFlow.sh") >= 0
    assert engine("memInfo.sh") > 0
    assert engine("diskUsage.sh") > 0


def test_engine_unknown_script_raises_keyerror():
    cluster = Cluster(n_hosts=1, seed=0)
    engine = SimScriptEngine(cluster["ws1"])
    with pytest.raises(KeyError):
        engine("quantum.sh")


def test_engine_register_custom_script():
    cluster = Cluster(n_hosts=1, seed=0)
    engine = SimScriptEngine(cluster["ws1"])
    engine.register("custom.sh", lambda param: 42.0)
    assert engine("custom.sh") == 42.0


def test_engine_snapshot_coherence():
    # All reads between refreshes see the same snapshot.
    cluster = Cluster(n_hosts=1, seed=0)
    host = cluster["ws1"]
    engine = SimScriptEngine(host)
    cluster.run(until=10)
    engine.refresh()
    a = engine("procCount.sh")
    CpuHog(host, count=5)
    assert engine("procCount.sh") == a  # unchanged until refresh
    engine.refresh()
    assert engine("procCount.sh") == a + 5


def test_loadavg_script_bad_window():
    cluster = Cluster(n_hosts=1, seed=0)
    engine = SimScriptEngine(cluster["ws1"])
    engine.refresh()
    with pytest.raises(ValueError):
        engine("loadAvg.sh", "7")


def test_idle_pct_complements_utilization():
    cluster = Cluster(n_hosts=1, seed=0)
    host = cluster["ws1"]
    engine = SimScriptEngine(host)
    engine.refresh()

    def burn(env):
        yield host.cpu.execute(10.0)

    cluster.env.process(burn(cluster.env))
    cluster.run(until=10)
    snap = engine.refresh()
    assert snap["cpu_idle_pct"] == pytest.approx(
        100.0 * (1 - snap["cpu_util"])
    )
    assert snap["cpu_idle_pct"] == pytest.approx(0.0, abs=1.0)
