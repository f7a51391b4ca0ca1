"""TimeSeries, recorders and plain-text reports."""

import pytest

from repro.cluster import Cluster, CpuHog
from repro.metrics import (
    HostRecorder,
    TimeSeries,
    ascii_plot,
    format_table,
)


# ------------------------------------------------------------ TimeSeries
def make_series(points):
    ts = TimeSeries("x")
    for t, v in points:
        ts.append(t, v)
    return ts


def test_append_and_views():
    ts = make_series([(0, 1.0), (10, 2.0), (20, 3.0)])
    assert len(ts) == 3
    assert list(ts.times) == [0, 10, 20]
    assert ts.points()[-1] == (20.0, 3.0)
    assert bool(ts)
    assert not bool(TimeSeries())


def test_array_views_cached_and_invalidated_on_append():
    ts = make_series([(0, 1.0), (10, 2.0)])
    first = ts.times
    assert ts.times is first  # cached between appends
    assert ts.values is ts.values
    ts.append(20, 3.0)
    refreshed = ts.times
    assert refreshed is not first  # append invalidates the cache
    assert list(refreshed) == [0, 10, 20]
    assert list(ts.values) == [1.0, 2.0, 3.0]


def test_non_decreasing_times_enforced():
    ts = make_series([(10, 1.0)])
    with pytest.raises(ValueError):
        ts.append(5, 2.0)


def test_statistics():
    ts = make_series([(0, 1.0), (10, 3.0), (20, 5.0)])
    assert ts.mean() == pytest.approx(3.0)
    assert ts.mean(t_min=10) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        ts.mean(t_min=100)


# -------------------------------------------------------------- recorder
def test_host_recorder_samples_metrics():
    cluster = Cluster(n_hosts=2, seed=0)
    rec = HostRecorder(cluster["ws1"], interval=10.0)
    CpuHog(cluster["ws1"], count=2)
    cluster.run(until=300)
    assert len(rec["loadavg1"]) >= 25
    assert rec["loadavg1"].values[-1] == pytest.approx(2.0, abs=0.2)
    assert rec["cpu_util"].values[-1] == pytest.approx(1.0, abs=0.01)
    assert rec["load_true"].mean(t_min=50) == pytest.approx(2.0, abs=0.05)


def test_recorder_comm_rates():
    cluster = Cluster(n_hosts=2, seed=0, cpu_per_byte=0.0)
    rec = HostRecorder(cluster["ws1"], interval=10.0)
    cluster.network.open_stream("ws1", "ws2", rate_cap=1024 * 50)
    cluster.run(until=100)
    assert rec["send_kbs"].values[-1] == pytest.approx(50.0, rel=0.05)


def test_recorder_stop():
    cluster = Cluster(n_hosts=1, seed=0)
    rec = HostRecorder(cluster["ws1"], interval=10.0)
    cluster.run(until=50)
    n = len(rec["loadavg1"])
    rec.stop()
    cluster.run(until=200)
    assert len(rec["loadavg1"]) <= n + 1


def test_recorder_invalid_interval():
    cluster = Cluster(n_hosts=1, seed=0)
    with pytest.raises(ValueError):
        HostRecorder(cluster["ws1"], interval=0)


def test_recorder_buffers_and_flushes_on_access():
    from repro.metrics.recorder import FLUSH_EVERY

    cluster = Cluster(n_hosts=1, seed=0)
    rec = HostRecorder(cluster["ws1"], interval=10.0)
    # Fewer samples than FLUSH_EVERY: everything still pending...
    cluster.run(until=10.0 * (FLUSH_EVERY - 2) + 5.0)
    assert len(rec._series["loadavg1"]) == 0
    # ...but __getitem__ flushes that metric before returning it.
    assert len(rec["loadavg1"]) == FLUSH_EVERY - 2
    assert len(rec._series["cpu_util"]) == 0  # others untouched


def test_recorder_flushes_at_batch_boundary():
    from repro.metrics.recorder import FLUSH_EVERY

    cluster = Cluster(n_hosts=1, seed=0)
    rec = HostRecorder(cluster["ws1"], interval=10.0)
    cluster.run(until=10.0 * (FLUSH_EVERY + 3) + 5.0)
    # The first FLUSH_EVERY samples flushed themselves in bulk.
    assert len(rec._series["loadavg1"]) == FLUSH_EVERY
    series = {metric: rec[metric] for metric in rec._series}  # flushed
    assert all(len(s) == FLUSH_EVERY + 3 for s in series.values())
    # Times stay monotone across the batch boundary.
    times = series["loadavg1"].times
    assert all(a < b for a, b in zip(times, times[1:]))


# -------------------------------------------------------------- reports
def test_format_table_alignment():
    text = format_table(
        ["policy", "total"],
        [("P1", 983.6), ("P2", 433.27)],
        title="Table 2",
    )
    lines = text.splitlines()
    assert lines[0] == "Table 2"
    assert "policy" in lines[1] and "total" in lines[1]
    assert len(lines) == 5


def test_format_table_number_formats():
    text = format_table(["v"], [(0.000123,), (12345.6,), (0,)])
    assert "0.000123" in text and "1.23e+04" in text


def test_ascii_plot_renders():
    ts1 = make_series([(i * 10, float(i % 5)) for i in range(20)])
    ts2 = make_series([(i * 10, 2.0) for i in range(20)])
    art = ascii_plot([ts1, ts2], title="demo", labels=["a", "b"])
    assert "demo" in art
    assert "*" in art and "o" in art
    assert "a" in art.splitlines()[-1]


def test_ascii_plot_empty():
    assert "(no data)" in ascii_plot([TimeSeries()], title="t")


def test_ascii_plot_constant_series():
    ts = make_series([(0, 1.0), (10, 1.0)])
    art = ascii_plot([ts])  # must not divide by zero
    assert "*" in art


def test_append_many_matches_scalar_appends():
    bulk = TimeSeries()
    bulk.append(0, 1.0)
    bulk.append_many([10, 20, 20, 30], [2.0, 3.0, 4.0, 5.0])
    scalar = make_series([(0, 1.0), (10, 2.0), (20, 3.0), (20, 4.0),
                          (30, 5.0)])
    assert bulk.points() == scalar.points()
    assert list(bulk.times) == list(scalar.times)


def test_append_many_empty_is_noop():
    ts = make_series([(0, 1.0)])
    cached = ts.times
    ts.append_many([], [])
    assert ts.points() == [(0.0, 1.0)]
    assert ts.times is cached  # no invalidation on a no-op


def test_append_many_invalidates_cached_views():
    ts = make_series([(0, 1.0)])
    cached = ts.times
    ts.append_many([5], [2.0])
    assert ts.times is not cached
    assert list(ts.values) == [1.0, 2.0]


def test_append_many_validation_leaves_series_untouched():
    ts = make_series([(10, 1.0)])
    with pytest.raises(ValueError):
        ts.append_many([20, 15], [1.0, 2.0])  # internal regression
    with pytest.raises(ValueError):
        ts.append_many([5, 25], [1.0, 2.0])  # behind the tail
    with pytest.raises(ValueError):
        ts.append_many([20, 30], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        ts.append_many([[20]], [[1.0]])  # not 1-D
    assert ts.points() == [(10.0, 1.0)]
