"""Batched status pushes: ``push_many`` ≡ per-host ``update`` loops."""

import numpy as np
import pytest

from repro.registry import SoftStateTable
from repro.registry.hostmatrix import METRIC_COLUMNS
from repro.rules import SystemState
from repro.sim import Environment

from ..callcount import count_calls
from .reference import register_one_by_one

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


# ------------------------------------------------------- register_many
_STATICS = (
    {"cpu_speed": 1.5, "features": "gpu,infiniband", "os": "SunOS 5.8"},
    {},
    {"cpu_speed": "2", "features": ""},
    {"features": "gpu"},
)


def _statics(n):
    return [dict(_STATICS[i % len(_STATICS)], hostname=f"ws{i}")
            for i in range(n)]


def _assert_same_table(table, ref):
    m, r = table.matrix, ref.matrix
    assert m.hosts == r.hosts and m.n == r.n
    for attr in m._COLUMNS:
        np.testing.assert_array_equal(getattr(m, attr)[:m.n],
                                      getattr(r, attr)[:r.n], attr)
    np.testing.assert_array_equal(m._metrics[:m.n], r._metrics[:r.n])
    assert m._static == r._static and m._features == r._features
    assert m._index == r._index
    np.testing.assert_array_equal(m.registry_mask, r.registry_mask)
    np.testing.assert_array_equal(m.hosts_array, r.hosts_array)
    assert [v.host for v in m.views()] == m.hosts


@pytest.mark.parametrize("n_rows", [0, 1, 15, 16, 17, 300])
def test_register_many_equals_register_one_by_one(n_rows):
    """One column append leaves the table a ``register`` loop leaves,
    on top of rows that were there before and at a later clock."""
    tables = []
    for register in (SoftStateTable.register_many, register_one_by_one):
        env = Environment()
        table = SoftStateTable(env, lease=35.0)
        table.register("old", {"cpu_speed": 3.0})
        table.update("old", SystemState.BUSY, {"loadavg1": 0.7})
        env.run(until=12.5)
        register(table, [f"ws{i}" for i in range(n_rows)] + ["r@child"],
                 _statics(n_rows + 1))
        tables.append(table)
    _assert_same_table(*tables)
    m = tables[0].matrix
    assert m.registry_mask.tolist() == [False] * (n_rows + 1) + [True]
    assert m._registered_at[:m.n].tolist() == [0.0] + [12.5] * (n_rows + 1)
    # The batch's static dicts are copies, as ``register``'s are.
    statics = _statics(2)
    tables[0].register_many(["x", "y"], statics)
    statics[0]["cpu_speed"] = 99.0
    assert tables[0].get("x").static_info["cpu_speed"] == 1.5


@pytest.mark.parametrize("hosts", [
    ["ws5", "ws1", "ws6"],          # ws1 is registered already
    ["ws5", "ws6", "ws5"],          # ws5 named twice
])
def test_register_many_naming_a_known_host_degrades_to_register(hosts):
    """Re-registration inside a batch keeps the host's row and its
    status; the new names are appended in batch order."""
    tables = []
    for register in (SoftStateTable.register_many, register_one_by_one):
        env = Environment()
        table = SoftStateTable(env, lease=35.0)
        register_one_by_one(table, ["ws0", "ws1", "ws2"], _statics(3))
        table.update("ws1", SystemState.BUSY, {"loadavg1": 0.7})
        env.run(until=20.0)
        register(table, hosts, [{"cpu_speed": 4.0 + i}
                                for i in range(len(hosts))])
        tables.append(table)
    _assert_same_table(*tables)
    table = tables[0]
    assert table.matrix.hosts[:3] == ["ws0", "ws1", "ws2"]
    assert table.get("ws1").state is SystemState.BUSY
    assert table.get("ws1").updates_received == 1


def test_a_refused_add_rows_leaves_nothing_behind():
    table = _fresh_table()
    m = table.matrix
    before = (list(m.hosts), dict(m._index), list(m._static),
              list(m._features), list(m.views()))
    hosts_array = m.hosts_array
    columns = {a: getattr(m, a)[:m.n].copy() for a in m._COLUMNS}
    metrics = m._metrics[:m.n].copy()
    for hosts, clash in ((["a", "ws2", "b"], "ws2"),
                         (["a", "b", "a"], "a")):
        with pytest.raises(ValueError,
                           match=f"host {clash!r} already has a row"):
            m.add_rows(hosts, [{}] * 3, 5.0)
        assert (m.hosts, m._index, m._static, m._features,
                m.views()) == before
        assert m.n == 5 and "a" not in m and "b" not in m
        # The membership caches were not even invalidated.
        assert m.hosts_array is hosts_array
        for attr, col in columns.items():
            np.testing.assert_array_equal(getattr(m, attr)[:m.n], col)
        np.testing.assert_array_equal(m._metrics[:m.n], metrics)
    with pytest.raises(ValueError, match="already has a row"):
        m.add_row("ws2", {}, 5.0)


def test_a_batch_reserves_its_capacity_in_one_step():
    m = SoftStateTable(Environment(), lease=35.0).matrix
    grown = []
    grow = m._grow
    m._grow = lambda need: (grown.append(need), grow(need))
    m.add_rows([f"h{i}" for i in range(5000)], [{}] * 5000, 0.0)
    assert grown == [5000] and m._state.shape == (5000,)
    m.add_row("one-more", {}, 0.0)
    assert grown == [5000, 5001] and m._metrics.shape[0] == 10000
    assert np.isnan(m._metrics[:m.n]).all() and m.n == 5001


def test_call_count_of_registering_is_flat_in_rows():
    """``register_many`` writes its columns once per batch.  What stays
    per host is the static description — a ``HostRecord``, a copy of
    the static dict, its feature set and its speed — at most 8 calls a
    host at 4 096 hosts, and fewer per host than at 64."""
    per_host = {}
    for n_rows in (64, 4096):
        table = SoftStateTable(Environment(), lease=35.0)
        hosts = [f"ws{i}" for i in range(n_rows)]
        statics = [{"hostname": h, "cpu_speed": 1.0, "features": ""}
                   for h in hosts]
        per_host[n_rows] = count_calls(
            lambda: table.register_many(hosts, statics)) / n_rows
        assert len(table) == n_rows
    assert per_host[4096] <= 8, per_host
    assert per_host[4096] < per_host[64], per_host
