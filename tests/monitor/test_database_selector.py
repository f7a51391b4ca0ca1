"""Monitoring database and victim selection."""

import pytest

from repro.monitor import MonitoringDatabase, ProcessInfo, select_victim


# ------------------------------------------------------------ database
def test_record_and_latest():
    db = MonitoringDatabase()
    db.record(10.0, {"loadavg1": 0.5, "proc_count": 42})
    db.record(20.0, {"loadavg1": 0.7, "proc_count": 40})
    assert db.latest("loadavg1") == 0.7
    assert db.latest_time("loadavg1") == 20.0
    assert db.latest("nope") is None


def test_series_and_window():
    db = MonitoringDatabase()
    for t in range(0, 100, 10):
        db.record(float(t), {"x": float(t)})
    assert len(db.series("x")) == 10
    assert db.window("x", since=50.0) == [
        (50.0, 50.0), (60.0, 60.0), (70.0, 70.0), (80.0, 80.0),
        (90.0, 90.0),
    ]


def test_mean():
    db = MonitoringDatabase()
    for t, v in ((0, 1.0), (10, 2.0), (20, 3.0)):
        db.record(float(t), {"x": v})
    assert db.mean("x") == pytest.approx(2.0)
    assert db.mean("x", since=10) == pytest.approx(2.5)
    with pytest.raises(KeyError):
        db.mean("missing")


def test_ring_buffer_bound():
    db = MonitoringDatabase(max_samples=5)
    for t in range(10):
        db.record(float(t), {"x": float(t)})
    series = db.series("x")
    assert len(series) == 5
    assert series[0] == (5.0, 5.0)


def test_metrics_listing_and_contains():
    db = MonitoringDatabase()
    db.record(0.0, {"b": 1.0, "a": 2.0})
    assert list(db.metrics()) == ["a", "b"]
    assert "a" in db and "z" not in db


def test_invalid_max_samples():
    with pytest.raises(ValueError):
        MonitoringDatabase(max_samples=0)


# ------------------------------------------------------------ selector
def info(pid, eta, start=0.0, locality=0.0):
    return ProcessInfo(pid=pid, name=f"p{pid}", start_time=start,
                       est_completion=eta, data_locality=locality)


def report(*infos):
    """The wire form of a status report's process list."""
    return [p.as_dict() for p in infos]


def test_selects_latest_completion():
    # Paper: "tends to migrate a process that has the latest completing
    # time to reduce the possibility of migrating multiple processes."
    chosen = select_victim(report(info(1, 100.0), info(2, 500.0),
                                  info(3, 300.0)))
    assert chosen == info(2, 500.0)


def test_tie_breaks_toward_earlier_start():
    chosen = select_victim(report(info(1, 100.0, start=50.0),
                                  info(2, 100.0, start=10.0)))
    assert chosen.pid == 2
    # Equal completion and start: the lower pid.
    chosen = select_victim(report(info(9, 100.0), info(4, 100.0)))
    assert chosen.pid == 4


def test_empty_returns_none():
    assert select_victim([]) is None


def test_data_locality_filter():
    # "If a process involves a lot in a local data access, the process
    # is not to be migrated."
    procs = report(info(1, 500.0, locality=0.9),
                   info(2, 100.0, locality=0.1))
    chosen = select_victim(procs, max_data_locality=0.5)
    assert chosen.pid == 2
    assert select_victim(report(info(1, 1.0, locality=0.9)),
                         max_data_locality=0.5) is None


def test_process_info_dict_roundtrip():
    p = info(7, 123.0, start=5.0, locality=0.25)
    assert ProcessInfo.from_dict(p.as_dict()) == p
