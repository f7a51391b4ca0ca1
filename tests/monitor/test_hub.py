"""Monitor hub: batched monitoring of the host plane's analytic rows."""

import numpy as np
import pytest

from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.monitor.hub import MonitorHub
from repro.rules import SystemState, paper_ruleset
from repro.rules.vector import OVERLOADED

INTERVAL = 10.0


def deploy(n_analytic=4, seed=4, ruleset=None):
    cluster = Cluster(n_hosts=2, seed=seed)
    for i in range(n_analytic):
        cluster.add_analytic_host(
            f"an{i}", mean_load=0.08 + 0.04 * i, period=2.0,
            phase=0.3 * i,
        )
    rs = Rescheduler(
        cluster,
        policy=policy_2(),
        config=ReschedulerConfig(interval=INTERVAL, sustain=3,
                                 ruleset=ruleset),
    )
    return cluster, rs


def verify(hub):
    """Classify one column snapshot of every hub row two ways — the
    hub's column classification, and ``MonitorCore.classify`` fed the
    same rows one at a time — and require the same states."""
    rows = hub._rows
    cols = hub.plane.analytic_sensor_columns(rows)
    hub._cols = cols
    states = hub._vector_classify(cols, len(rows))
    for j, core in enumerate(hub.cores):
        snapshot = {name: float(col[j]) for name, col in cols.items()}
        core.evaluator.script_engine.snapshot = snapshot
        expected = core.classify(snapshot)
        got = SystemState(int(states[j]))
        assert got is expected, (
            f"hub classification diverged on {core.host_name} at "
            f"t={hub.env.now}: column {got.name} != per-row "
            f"{expected.name}"
        )
    return states


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
    """Column classification ≡ per-row ``MonitorCore.classify`` over a
    run that takes rows through more than one state, with policy
    predicates alone and with the paper's rule set deployed."""
    for ruleset in (None, paper_ruleset()):
        cluster, rs = deploy(ruleset=ruleset)
        seen = set()
        for until in range(15, 200, 5):
            if until == 60:
                cluster.plane.inject_hogs("an1", 3)
            if until == 120:
                cluster.plane.inject_hogs("an2", 1)
            cluster.run(until=float(until))
            seen.update(int(s) for s in verify(rs.hub))
        assert rs.hub.core_cycles > 0
        assert len(seen) >= 2  # the comparison is not FREE == FREE


def test_verify_mode_catches_misclassification():
    """The differential has teeth: a column classifier that disagrees
    with the per-row one is caught."""
    cluster, rs = deploy()
    cluster.run(until=30.0)
    rs.hub._vector_classify = lambda cols, n: np.full(
        n, np.int8(OVERLOADED)
    )
    with pytest.raises(AssertionError, match="diverged"):
        verify(rs.hub)


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
