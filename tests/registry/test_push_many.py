"""Batched status pushes: ``push_many`` ≡ per-host ``update`` loops."""

import numpy as np

from repro.registry import SoftStateTable
from repro.registry.hostmatrix import METRIC_COLUMNS
from repro.rules import SystemState
from repro.sim import Environment

from ..callcount import count_calls

HOSTS = ["ws1", "ws2", "ws3", "ws4", "ws5"]
STATES = [
    SystemState.FREE, SystemState.BUSY, SystemState.FREE,
    SystemState.OVERLOADED, SystemState.BUSY,
]


def _columns(n, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "loadavg1": rng.random(n) * 3.0,
        "loadavg5": rng.random(n) * 2.0,
        "cpu_idle_pct": rng.random(n) * 100.0,
        "proc_count": np.floor(rng.random(n) * 40.0),
        "mem_avail_pct": rng.random(n) * 100.0,
    }


def _fresh_table():
    env = Environment()
    table = SoftStateTable(env, lease=35.0)
    for name in HOSTS:
        table.register(name, {"cpu_speed": 450.0})
    return table


def test_push_many_equivalent_to_update_loop():
    cols = _columns(len(HOSTS))
    scalar = _fresh_table()
    for i, name in enumerate(HOSTS):
        scalar.update(
            name, STATES[i],
            {metric: col[i] for metric, col in cols.items()},
        )

    # ``states`` as a list of members, and as the hub's int8 codes.
    codes = np.array([int(s) for s in STATES], dtype=np.int8)
    for states in (STATES, codes):
        batched = _fresh_table()
        batched.push_many(HOSTS, states, cols)
        for name in HOSTS:
            b, s = batched.get(name), scalar.get(name)
            assert b.state is s.state
            assert b.metrics == s.metrics
            assert b.processes == s.processes == []
            assert b.updates_received == s.updates_received == 1
            assert b.last_update == s.last_update
        # The columnar mirror matches too (NaN == NaN for unreported).
        for metric in METRIC_COLUMNS:
            np.testing.assert_array_equal(
                batched.matrix.metric_column(metric),
                scalar.matrix.metric_column(metric),
            )
        np.testing.assert_array_equal(
            batched.matrix.state_codes, scalar.matrix.state_codes
        )


def test_push_many_implicitly_registers_unknown_hosts():
    env = Environment()
    table = SoftStateTable(env)
    table.push_many(
        ["new1", "new2"],
        [SystemState.FREE, SystemState.BUSY],
        {"loadavg1": np.array([0.5, 1.5])},
    )
    assert [r.host for r in table.records()] == ["new1", "new2"]
    assert table.get("new2").state is SystemState.BUSY
    assert table.matrix.row_of("new1") == 0


def test_push_many_ignores_unknown_metrics():
    table = _fresh_table()
    table.push_many(
        HOSTS[:1], [SystemState.FREE],
        {"loadavg1": np.array([1.0]), "no_such_metric": np.array([9.9])},
    )
    # The record keeps everything; the matrix drops the unknown column.
    assert table.get("ws1").metrics["no_such_metric"] == 9.9
    assert table.matrix.metric_column("loadavg1")[0] == 1.0


def test_push_many_empty_batch_is_a_noop():
    table = _fresh_table()
    table.push_many([], [], {"loadavg1": np.array([])})
    assert all(r.updates_received == 0 for r in table.records())


def test_push_many_refreshes_lease():
    env = Environment()
    table = SoftStateTable(env, lease=30.0)
    rec = table.register("ws1", {})

    def scenario(env):
        yield env.timeout(25)
        table.push_many(["ws1"], [SystemState.BUSY],
                        {"loadavg1": np.array([1.2])})
        yield env.timeout(25)

    env.process(scenario(env))
    env.run()
    assert table.effective_state(rec) is SystemState.BUSY


def test_set_status_rows_overwrites_stale_metrics():
    table = _fresh_table()
    table.update("ws1", SystemState.BUSY,
                 {"loadavg1": 2.0, "proc_count": 12.0})
    # The next batch omits proc_count: the matrix row must read NaN,
    # exactly like a scalar set_status with a smaller metric dict.
    table.push_many(["ws1"], [SystemState.FREE],
                    {"loadavg1": np.array([0.3])})
    assert table.matrix.metric_column("loadavg1")[0] == 0.3
    assert np.isnan(table.matrix.metric_column("proc_count")[0])
    assert table.get("ws1").state is SystemState.FREE
    assert table.get("ws1").updates_received == 2


def test_set_status_rows_direct():
    table = _fresh_table()
    matrix = table.matrix
    rows = np.array([1, 3], dtype=np.intp)
    matrix.set_status_rows(
        rows,
        np.array([int(SystemState.BUSY), int(SystemState.OVERLOADED)],
                 dtype=np.int8),
        {"loadavg1": np.array([1.1, 4.4])},
        now=12.0,
    )
    assert matrix.state_codes[1] == int(SystemState.BUSY)
    assert matrix.state_codes[3] == int(SystemState.OVERLOADED)
    assert matrix.metric_column("loadavg1")[3] == 4.4
    assert matrix.last_update[1] == 12.0
    # Untouched rows keep their state.
    assert matrix.state_codes[0] == int(SystemState.FREE)
    assert np.isnan(matrix.metric_column("loadavg1")[0])


def test_push_many_counts_a_host_named_twice_twice():
    """``update`` twice ≡ one batch naming the host twice: two pushes
    counted, the later write kept (a fancy-indexed ``+= 1`` counts
    one)."""
    table = _fresh_table()
    table.push_many(
        ["ws2", "ws1", "ws2"],
        [SystemState.BUSY, SystemState.FREE, SystemState.OVERLOADED],
        {"loadavg1": np.array([1.0, 2.0, 3.0]),
         "hosts": np.array([7.0, 8.0, 9.0])},
    )
    scalar = _fresh_table()
    scalar.update("ws2", SystemState.BUSY, {"loadavg1": 1.0, "hosts": 7.0})
    scalar.update("ws1", SystemState.FREE, {"loadavg1": 2.0, "hosts": 8.0})
    scalar.update("ws2", SystemState.OVERLOADED,
                  {"loadavg1": 3.0, "hosts": 9.0})
    for name in HOSTS:
        b, s = table.get(name), scalar.get(name)
        assert b.updates_received == s.updates_received
        assert b.state is s.state
        assert b.metrics == s.metrics
    assert table.get("ws2").updates_received == 2
    assert table.get("ws2").metrics == {"loadavg1": 3.0, "hosts": 9.0}


def test_push_many_clears_side_tables_of_pushed_rows_only():
    table = _fresh_table()
    report = [{"name": "app", "pid": 7}]
    for name in ("ws1", "ws3"):
        table.update(name, SystemState.OVERLOADED,
                     {"loadavg1": 4.0, "hosts": 2.0}, report)
    table.push_many(["ws1", "ws2"], [SystemState.FREE, SystemState.FREE],
                    {"loadavg1": np.array([0.1, 0.2])})
    assert table.get("ws1").processes == []
    assert table.get("ws1").metrics == {"loadavg1": 0.1}
    assert table.get("ws3").processes == report
    assert table.get("ws3").metrics == {"loadavg1": 4.0, "hosts": 2.0}


def test_call_count_of_push_many_is_flat_in_rows():
    """No per-host Python in the real table's batch fold: 2048 rows
    cost the calls 64 rows do."""
    counts = {}
    for n_rows in (64, 2048):
        table = SoftStateTable(Environment(), lease=35.0)
        hosts = [f"ws{i}" for i in range(n_rows)]
        for name in hosts:
            table.register(name, {})
        # One row carries side-table entries the batch must clear.
        table.update("ws3", SystemState.OVERLOADED, {"hosts": 1.0},
                     [{"name": "app", "pid": 1}])
        cols = _columns(n_rows)
        codes = np.zeros(n_rows, dtype=np.int8)
        counts[n_rows] = count_calls(
            lambda: table.push_many(hosts, codes, cols))
        assert table.matrix.updates_received.tolist() == (
            [1, 1, 1, 2] + [1] * (n_rows - 4))
        assert table.get("ws3").processes == []
        np.testing.assert_array_equal(
            table.matrix.metric_column("loadavg5"), cols["loadavg5"])
    assert abs(counts[2048] - counts[64]) <= 4, counts
