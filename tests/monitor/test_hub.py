"""Monitor hub: batched monitoring of the host plane's analytic rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.cluster.host import StaticInfo
from repro.monitor.core import MonitorCore
from repro.monitor.hub import MonitorHub
from repro.protocol.transport import EndpointRegistry
from repro.registry import SoftStateTable
from repro.rules import RuleSet, SimpleRule, SystemState, paper_ruleset
from repro.rules.states import OVERLOADED

from ..callcount import count_calls
from .reference import RowPump

INTERVAL = 10.0


def deploy(n_analytic=4, seed=4, ruleset=None, sustain=3,
           intervals_by_state=None):
    cluster = Cluster(n_hosts=2, seed=seed)
    for i in range(n_analytic):
        cluster.add_analytic_host(
            f"an{i}", mean_load=0.08 + 0.04 * i, period=2.0,
            phase=0.3 * i,
        )
    rs = Rescheduler(
        cluster,
        policy=policy_2(),
        config=ReschedulerConfig(
            interval=INTERVAL, sustain=sustain, ruleset=ruleset,
            intervals_by_state=intervals_by_state or {},
        ),
    )
    return cluster, rs


def check_row_hint(matrix, hosts, rows):
    """A ``push_many`` row hint that is still current names the rows
    the pushed hosts have (read off the row order, not by name)."""
    if rows is not None and rows[0] == matrix.layout:
        names = np.array(matrix.hosts, dtype=object)[rows[1]]
        assert names.tolist() == list(hosts), "stale row hint"


class BatchLog(SoftStateTable):
    """A soft-state table over the hub's hosts that records its
    ``push_many`` batches and checks each row hint."""

    def __init__(self, env, hosts):
        super().__init__(env)
        self.register_many(hosts, [{} for _ in hosts])
        self.batches = []

    def push_many(self, hosts, states, columns, rows=None):
        check_row_hint(self.matrix, hosts, rows)
        self.batches.append((list(hosts), states, columns))
        super().push_many(hosts, states, columns, rows)


def bare_hub(n_rows, **kwargs):
    """A hub over ``n_rows`` analytic rows wired to nothing: batches
    land in a :class:`BatchLog`, wire reports in ``hub.sent``."""
    cluster = Cluster(n_hosts=2, seed=1)
    names = [f"an{i}" for i in range(n_rows)]
    for i, name in enumerate(names):
        cluster.add_analytic_host(
            name, mean_load=0.05 + 0.3 * (i % 7) / 7, period=2.0,
            phase=0.1 * (i % 13),
        )
    hub = MonitorHub(cluster.plane, names, endpoint_host=cluster["ws1"],
                     directory=EndpointRegistry(),
                     registry_address="registry",
                     table=BatchLog(cluster.env, names),
                     **kwargs)
    hub.sent = []
    hub.endpoint.send_and_forget = (
        lambda address, msg: hub.sent.append(msg))
    return cluster, hub


class SideBySide:
    """Runs the reference row pump beside ``hub._tick`` at every hub
    wake-up, off the same plane columns, and requires the same per-row
    state, the same ``push_many`` batch and the same wire reports."""

    def __init__(self, hub):
        self.hub = hub
        self.pump = RowPump(hub)
        self.batches = []
        self.reports = []
        self.wire = []  # every report of the run
        self.ticks = 0
        self.seen = set()
        push_many = hub.table.push_many
        send = hub.endpoint.send_and_forget

        def spy_push(hosts, states, columns, rows=None):
            check_row_hint(hub.table.matrix, hosts, rows)
            self.batches.append((hosts, states, columns))
            push_many(hosts, states, columns, rows)

        def spy_send(address, msg):
            self.reports.append(msg)
            send(address, msg)

        hub.table.push_many = spy_push
        hub.endpoint.send_and_forget = spy_send
        hub._tick = self.tick

    def force_due(self):
        """Make every row due now, on both sides."""
        self.hub._next_due[:] = self.hub.env.now
        self.pump.next_due = self.hub._next_due.tolist()

    def tick(self):
        # Reference first: it only reads the plane and process tables.
        batch, reports = self.pump.tick()
        del self.batches[:], self.reports[:]
        MonitorHub._tick(self.hub)
        self.check(batch, reports)
        self.ticks += 1

    def check(self, batch, reports):
        hub, cores = self.hub, self.pump.cores
        where = f"hub diverged from the row pump at t={hub.env.now}: "
        assert hub.state.tolist() == [int(c.state) for c in cores], (
            where + "classified state")
        assert hub.reported.tolist() == [
            int(c.reported_state) for c in cores
        ], where + "reported state"
        assert hub.streak.tolist() == [
            c._overload_streak for c in cores
        ], where + "overload streak"
        assert hub.row_cycles.tolist() == [c.cycles for c in cores], (
            where + "cycle count")
        # Bit-equal: list equality on floats is exact.
        assert hub._next_due.tolist() == self.pump.next_due, (
            where + "next_due")
        if batch is None:
            assert self.batches == [], where + "unexpected push_many"
        else:
            assert len(self.batches) == 1, where + "push_many calls"
            hosts, states, columns = self.batches[0]
            assert list(hosts) == batch[0], where + "pushed hosts"
            assert [int(s) for s in states] == [
                int(s) for s in batch[1]
            ], where + "pushed states"
            assert [
                (name, np.asarray(col).tolist())
                for name, col in columns.items()
            ] == list(batch[2].items()), where + "pushed columns"
        assert [
            (m.host, m.state, m.metrics, m.processes)
            for m in self.reports
        ] == [
            (m.host, m.state, m.metrics, m.processes) for m in reports
        ], where + "wire reports"
        self.wire.extend(self.reports)
        self.seen.update(hub.state.tolist())


def test_hub_owns_analytic_rows_monitors_own_backed():
    cluster, rs = deploy()
    assert rs.hub is not None
    assert rs.hub.hosts == ["an0", "an1", "an2", "an3"]
    assert set(rs.monitors) == {"ws1", "ws2"}
    assert set(rs.commanders) == {"ws1", "ws2"}


def test_no_hub_without_analytic_rows():
    cluster = Cluster(n_hosts=3, seed=0)
    rs = Rescheduler(cluster, policy=policy_2(),
                     config=ReschedulerConfig())
    assert rs.hub is None


def test_batch_pushes_land_in_registry():
    cluster, rs = deploy()
    cluster.run(until=65.0)
    table = rs.registry.table
    for name in rs.hub.hosts:
        rec = table.get(name)
        # First cycle is due after interval + phase: ≥4 pushes by t=65.
        assert rec.updates_received >= 4
        assert rec.state in (SystemState.FREE, SystemState.BUSY)
        assert rec.metrics["loadavg1"] >= 0.0
        assert rec.metrics["cpu_idle_pct"] > 0.0
        assert rec.processes == []
        assert rec.last_update > 0.0
        row = table.matrix.row_of(name)
        col = table.matrix.metric_column("loadavg1")
        assert col[row] == rec.metrics["loadavg1"]
    assert rs.hub.core_cycles >= 4 * len(rs.hub.hosts)


def test_sustain_delays_overload_and_report_travels_wire():
    cluster, rs = deploy()
    table = rs.registry.table
    observed = []

    def watch(env):
        yield env.timeout(40.0)
        cluster.plane.inject_hogs("an1", 3)
        while True:
            yield env.timeout(1.0)
            observed.append((env.now, table.get("an1").state))

    cluster.env.process(watch(cluster.env))
    cluster.run(until=200.0)
    overloaded_at = next(
        t for t, s in observed if s is SystemState.OVERLOADED
    )
    # sustain=3: two whole cycles must report demoted (BUSY) first.
    assert overloaded_at >= 40.0 + 2 * INTERVAL * 0.96
    assert any(
        s is SystemState.BUSY
        for t, s in observed if t < overloaded_at
    )
    # The overload went through the real wire into RegistryCore.
    assert table.get("an1").state is SystemState.OVERLOADED


def test_verify_mode_clean_run():
    """Hub ≡ per-row ``MonitorCore`` pump over a run that takes rows
    through more than one state, with policy predicates alone and with
    the paper's rule set deployed."""
    for ruleset in (None, paper_ruleset()):
        cluster, rs = deploy(ruleset=ruleset)
        side = SideBySide(rs.hub)
        for until in range(15, 200, 5):
            if until == 60:
                cluster.plane.inject_hogs("an1", 3)
            if until == 120:
                cluster.plane.inject_hogs("an2", 1)
            cluster.run(until=float(until))
        assert side.ticks > 0 and rs.hub.core_cycles > 0
        assert len(side.seen) >= 2  # the comparison is not FREE == FREE


def test_verify_mode_catches_misclassification():
    """The differential has teeth: a column classifier that disagrees
    with ``MonitorCore.classify`` is caught."""
    cluster, rs = deploy()
    side = SideBySide(rs.hub)
    cluster.run(until=30.0)
    rs.hub._vector_classify = lambda cols, n: np.full(
        n, np.int8(OVERLOADED)
    )
    side.force_due()
    with pytest.raises(AssertionError, match="diverged"):
        side.tick()


@pytest.mark.parametrize("sustain", [1, 3])
def test_hub_matches_row_pump_tick_for_tick(sustain):
    """State columns, ``next_due`` bits, every ``push_many`` batch and
    every wire report equal the reference's, through overload, a
    decision with a real victim report, and recovery — with per-state
    cadences, so ``next_due`` depends on the reported state."""
    from repro.commander import Commander
    from repro.workloads import TestTreeApp

    cluster, rs = deploy(
        n_analytic=6, sustain=sustain, ruleset=paper_ruleset(),
        intervals_by_state={SystemState.BUSY: 5.0,
                            SystemState.OVERLOADED: 2.5},
    )
    assert rs.hub.rng is not None
    side = SideBySide(rs.hub)
    Commander(cluster.host("an1"), rs.directory)
    rs.launch_app(TestTreeApp(), "an1", params={
        "levels": 10, "trees": 40, "node_cost": 2e-3, "seed": 1})
    for until in range(10, 260, 10):
        if until == 40:
            cluster.plane.inject_hogs("an1", 3)
            cluster.plane.inject_hogs("an4", 2)
        if until == 150:
            cluster.plane.clear_hogs("an1")
        cluster.run(until=float(until))
    assert side.ticks > 50
    assert side.seen >= {0, 2}
    # Some report carried the victim's process list.
    assert any(m.processes for m in side.wire)
    assert any(d.source == "an1" for d in rs.decisions)


@settings(max_examples=60, deadline=None)
@given(
    sustain=st.integers(1, 4),
    steps=st.lists(
        st.lists(st.tuples(st.booleans(), st.sampled_from([0, 1, 2])),
                 min_size=5, max_size=5),
        min_size=1, max_size=12,
    ),
)
def test_sustain_columns_match_apply_sustain(sustain, steps):
    """Arbitrary classified-state sequences over arbitrary due subsets:
    the streak and reported-state columns ≡ ``apply_sustain`` per row."""
    cluster, hub = bare_hub(5, sustain=sustain)
    cores = [
        MonitorCore(clock=hub.env, host_name=name, registry_address="r",
                    script_engine=None, sustain=sustain)
        for name in hub.hosts
    ]
    reported = [SystemState.FREE] * 5
    for step in steps:
        due = [i for i, (is_due, _) in enumerate(step) if is_due]
        codes = np.array([step[i][1] for i in due], dtype=np.int8)
        hub._next_due[:] = np.inf
        hub._next_due[due] = hub.env.now
        hub._vector_classify = lambda cols, n: codes.copy()
        hub._tick()
        for i in due:
            reported[i] = cores[i].apply_sustain(SystemState(step[i][1]))
        assert hub.reported.tolist() == [int(s) for s in reported]
        assert hub.streak.tolist() == [c._overload_streak for c in cores]


@pytest.mark.costguard
def test_call_count_of_a_hub_tick_is_flat_in_rows():
    """No per-row Python in a tick: with every row due and none
    OVERLOADED, 2048 rows cost the calls 64 rows do."""
    counts = {}
    for n_rows in (64, 2048):
        cluster, hub = bare_hub(n_rows, policy=policy_2(),
                                ruleset=paper_ruleset(),
                                rng=np.random.default_rng(0))
        hub._next_due[:] = hub.env.now
        counts[n_rows] = count_calls(hub._tick)
        (hosts, states, columns), = hub.table.batches
        assert len(hosts) == len(states) == n_rows
        assert hub.sent == [] and hub.core_cycles == n_rows
    assert abs(counts[2048] - counts[64]) <= 8, counts


def test_empty_ruleset_is_kept_and_later_rules_reach_the_hub():
    """The hub keeps a caller's empty ``RuleSet`` (falsy: it has
    ``__len__``) and, like ``MonitorCore``, picks up rules added after
    construction; with no top-level rule every row is FREE."""
    rules = RuleSet()
    cluster, hub = bare_hub(3, ruleset=rules, sustain=1)
    assert hub.ruleset is rules
    hub._next_due[:] = hub.env.now
    hub._tick()
    assert hub.state.tolist() == [0, 0, 0]
    rules.add(SimpleRule(number=1, name="load", script="loadAvg.sh",
                         operator=">=", busy=0.0, overloaded=0.0))
    hub._next_due[:] = hub.env.now
    hub._tick()
    assert hub.state.tolist() == [OVERLOADED] * 3
    assert len(hub.sent) == 3


class HashedName(str):
    """A host name whose every hashing is a Python-level call, so
    re-hashing the host list once per host shows up in a call count."""

    def __hash__(self):
        return str.__hash__(self)


@pytest.mark.costguard
def test_call_count_of_rescheduler_init_is_linear_in_hosts():
    """Deploying over 32× the hosts costs at most 40× the calls (a
    per-host rebuild of a host-list set costs ~1000×).  Measured: 11
    calls per extra host as counted here (4 with plain ``str`` names,
    each of whose hashings is not a call): the IP and a ``HostRecord``;
    it was 28 (21) while each host built its own ``StaticInfo``, and
    43 (34) while each host was also registered by its own call."""
    counts = {}
    for n_hosts in (64, 2048):
        cluster = Cluster(n_hosts=2, seed=0)
        names = [HashedName(f"an{i}") for i in range(n_hosts)]
        for name in names:
            cluster.add_analytic_host(name, mean_load=0.1, period=2.0)
        counts[n_hosts] = count_calls(lambda: Rescheduler(
            cluster, policy=policy_2(), registry_host="ws1",
            monitored_hosts=["ws1", "ws2"] + names,
        ))
    assert counts[2048] <= 40 * counts[64], counts


class CountingIndex(dict):
    """A host → row index that counts the name lookups made in it."""

    lookups = 0

    def __getitem__(self, host):
        self.lookups += 1
        return dict.__getitem__(self, host)

    def get(self, host, default=None):
        self.lookups += 1
        return dict.get(self, host, default)

    def __contains__(self, host):
        self.lookups += 1
        return dict.__contains__(self, host)


@pytest.mark.costguard
def test_a_hub_tick_looks_up_no_host_name():
    """The hub resolves its registry rows once per row layout; a tick
    with no OVERLOADED row then reaches ``push_many`` with rows, not
    names.  The flat-calls guard cannot see this — ``map(_index.
    __getitem__, …)`` runs in C — so the index counts itself."""
    for n_rows in (64, 2048):
        cluster, hub = bare_hub(n_rows, policy=policy_2(),
                                ruleset=paper_ruleset(),
                                rng=np.random.default_rng(0))
        matrix = hub.table.matrix
        index = matrix._index = CountingIndex(matrix._index)
        hub._next_due[:] = hub.env.now
        hub._tick()
        assert index.lookups == n_rows  # the one resolution
        for _ in range(3):
            index.lookups = 0
            hub._next_due[:] = hub.env.now
            hub._tick()
            assert index.lookups == 0, n_rows
        assert len(hub.table.batches) == 4 and hub.sent == []
        assert [r.updates_received for r in matrix.views()] == [4] * n_rows


@pytest.mark.costguard
def test_analytic_hosts_register_without_a_static_info_each(monkeypatch):
    """Deploying over 4096 analytic rows of two specs builds one
    :class:`StaticInfo` per spec — its template — and no host.
    Measured: 4.1 calls per host (the name's IP, a ``HostRecord``);
    it was 22 while every row built its own ``StaticInfo``."""
    def deploy_4096():
        cluster = Cluster(n_hosts=2, seed=0)
        cluster.add_analytic_hosts([f"an{i}" for i in range(2048)])
        cluster.add_analytic_hosts([f"gp{i}" for i in range(2048)],
                                   cpu_speed=2.0, features=("gpu",))
        return cluster, lambda: Rescheduler(
            cluster, policy=policy_2(), registry_host="ws1")

    deploy_4096()[1]()  # warm: imports and first-use caches
    cluster, deploy = deploy_4096()
    built = []
    init = StaticInfo.__init__
    monkeypatch.setattr(StaticInfo, "__init__", lambda self, *a, **k: (
        built.append(a or k), init(self, *a, **k))[1])
    per_host = count_calls(deploy) / 4096
    assert len(built) == 2, built
    assert set(cluster.hosts) == {"ws1", "ws2"}
    assert per_host <= 5.1, per_host


def test_pushes_follow_the_registry_rows_across_unregister_and_register():
    """Unregister an earlier row mid-run, then register it again: after
    each, the hub's next pushes land on the rows ``push_many`` finds by
    name — through the name path while a hub host has no row, through
    the refreshed row hint once every one has."""
    cluster, rs = deploy(n_analytic=6)
    hub, table = rs.hub, rs.registry.table
    matrix = table.matrix
    push_many = table.push_many
    hinted = []

    def spy(hosts, states, columns, rows=None):
        check_row_hint(matrix, hosts, rows)
        hinted.append(rows is not None and rows[0] == matrix.layout)
        push_many(hosts, states, columns, rows)
        for j, host in enumerate(hosts):
            row = matrix.row_of(host)
            assert matrix._last_update[row] == cluster.env.now, host
            assert (matrix.metric_column("loadavg1")[row]
                    == columns["loadavg1"][j]), host

    table.push_many = spy
    cluster.run(until=30.0)

    def tick(*due):
        del hinted[:]
        hub._next_due[:] = np.inf
        hub._next_due[list(due)] = cluster.env.now
        hub._tick()
        return hinted

    table.unregister("an1")
    assert tick(0, 2, 3) == [False] and table.get("an1") is None
    assert tick(1, 4) == [False]  # an1 pushed: re-registered by name
    assert matrix.hosts[-1] == "an1"
    assert tick(0, 1, 5) == [True]
    table.unregister("an0")
    table.register("an0", cluster.static_info("an0").as_dict())
    assert matrix.hosts[-2:] == ["an1", "an0"]
    assert tick(0, 1, 2, 3, 4, 5) == [True]
    assert tick(0, 3) == [True]


def test_hub_rejects_empty_and_backed_hosts():
    cluster, rs = deploy()
    with pytest.raises(ValueError, match="at least one"):
        MonitorHub(cluster.plane, [], endpoint_host=None,
                   directory=None, registry_address="r", table=None)
    from repro.protocol.transport import EndpointRegistry

    with pytest.raises(ValueError, match="analytic"):
        MonitorHub(cluster.plane, ["ws1"],
                   endpoint_host=cluster["ws1"],
                   directory=EndpointRegistry(),
                   registry_address="r",
                   table=rs.registry.table)


def test_hog_overload_drives_decision_migration_and_recovery():
    """The full autonomic loop over an analytic row: inject_hogs →
    hub classifies OVERLOADED (after sustain) → the registry decides
    against the victim report supplied by ``processes_for`` → the
    commander migrates the app off the row → clear_hogs → the row
    recovers.  Previously only the fold/classify halves were covered."""
    from repro.commander import Commander
    from repro.workloads import TestTreeApp

    cluster, rs = deploy()
    # Analytic rows get no commander by default; give the victim row
    # one so the registry's MigrateCommand has somewhere to land.
    Commander(cluster.host("an1"), rs.directory)
    params = {"levels": 10, "trees": 40, "node_cost": 2e-3, "seed": 1}
    app = rs.launch_app(TestTreeApp(), "an1", params=params)

    def drive(env):
        yield env.timeout(30.0)
        cluster.plane.inject_hogs("an1", 3)
        yield env.timeout(120.0)
        cluster.plane.clear_hogs("an1")

    cluster.env.process(drive(cluster.env))
    cluster.env.run(until=app.done)
    # The overload became a decision sourced at the analytic row, which
    # proves the victim report travelled through processes_for (the
    # no-process sustain test above never produces one).
    decision = next(d for d in rs.decisions if d.source == "an1")
    assert decision.dest in ("ws1", "ws2")
    assert app.migration_count >= 1
    assert app.host.name == decision.dest
    assert app.result == pytest.approx(
        TestTreeApp.expected_checksum(params)
    )
    # After clear_hogs the row reports its way back below overload.
    cluster.env.run(until=cluster.env.now + 60.0)
    assert rs.registry.table.get("an1").state in (
        SystemState.FREE, SystemState.BUSY,
    )
    # Of the analytic rows, only the one something was placed on ever
    # became a Host: registration, monitoring, the overload report and
    # the decision all ran on rows.
    assert set(cluster.hosts) == {"ws1", "ws2", "an1"}
    assert len(cluster.names()) == 6
