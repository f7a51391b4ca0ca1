"""The registry's decision log: a list of records to read, columns to keep."""

import gc
import tracemalloc

import pytest

from repro.entity.clock import ManualClock
from repro.entity.outbox import Task
from repro.monitor import ProcessInfo
from repro.protocol import StatusUpdate
from repro.registry.core import DecisionLog, Reconfigure, RegistryCore
from repro.rules import SystemState


def records():
    """Every shape a decision takes: a 1:1 migration, one with no
    destination, an escalated one, k-destination expands, a shrink, a
    decision without a pid, and clock readings whose last bit counts."""
    return [
        Reconfigure(at=0.1 + 0.2, effect="migrate", source="ws1",
                    dests=("ws2",), pid=101, app="mc_pi",
                    reason="ws1 overloaded", decision_seconds=1e-300),
        Reconfigure(at=-0.0, effect="migrate", source="ws1", dests=(),
                    pid=101, app="mc_pi", reason="ws1 overloaded",
                    decision_seconds=0.0),
        Reconfigure(at=7.000000000000001, effect="migrate", source="ws3",
                    dests=("child@10.0.0.1:5",), pid=2**40, app="sqrt",
                    reason="ws3 overloaded", decision_seconds=2.5e-3,
                    escalated=True),
        Reconfigure(at=8.0, effect="expand", source="ws1",
                    dests=("ws2", "ws3", "ws4"), pid=102, app="mc_pi",
                    reason="ws1 overloaded; grow mc_pi",
                    decision_seconds=1 / 3),
        Reconfigure(at=9.0, effect="expand", source="ws2",
                    dests=("ws3", "ws2,ws4"), pid=103, app="mc_pi",
                    reason="ws2 overloaded; grow mc_pi",
                    decision_seconds=0.002),
        Reconfigure(at=10.5, effect="shrink", source="ws4", dests=("ws1",),
                    pid=104, app="mc_pi", reason="ws4 overloaded; shrink "
                    "mc_pi", decision_seconds=0.001),
        Reconfigure(at=11.0, effect="migrate", source="ws2",
                    dests=("ws1",), pid=None, app="", reason="r",
                    decision_seconds=1e308),
    ]


def bits(rec):
    return (rec.at.hex(), rec.decision_seconds.hex())


def test_the_log_reads_as_the_list_it_replaces():
    plain = records()
    log = DecisionLog()
    assert len(log) == 0 and list(log) == [] and log[0:] == []
    for rec in plain:
        log.append(rec)
    n = len(plain)
    assert len(log) == n
    for i in range(-n, n):
        assert log[i] == plain[i], i
        assert bits(log[i]) == bits(plain[i]), i
        assert type(log[i].pid) is type(plain[i].pid)
    for start in range(-n - 1, n + 2):
        assert log[start:] == plain[start:], start
    assert log[1:-1] == plain[1:-1] and log[::2] == plain[::2]
    assert list(log) == plain
    assert [bits(r) for r in log] == [bits(r) for r in plain]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            log[i]
    core = RegistryCore(ManualClock(), "registry")
    for rec in plain:
        core.reconfigurations.append(rec)
    assert list(core.decisions) == [r for r in plain
                                   if r.effect == "migrate"]


def test_one_record_unpacks_and_a_refused_one_leaves_no_row():
    log = DecisionLog()
    rec = records()[0]
    log.append(rec)
    (only,) = log
    assert only == rec and only.dest == "ws2"
    with pytest.raises(ValueError):
        log.append(Reconfigure(at=1.0, effect="teleport", source="ws1",
                               dests=(), pid=1, app="a", reason="r",
                               decision_seconds=0.0))
    assert len(log) == 1 and list(log) == [rec]


# -- memory: a decision costs a fixed few dozen bytes -----------------------

HOSTS = 256
WARM = 500
DECISIONS = 10_000


def _decide(core, host, pid):
    proc = ProcessInfo(pid=pid, name="sqrt_sum", start_time=0.0,
                       est_completion=1000.0).as_dict()
    update = StatusUpdate(host=host, state=SystemState.OVERLOADED,
                          metrics={"loadavg1": 3.0}, processes=[proc])
    for effect in core.handle(update, host):
        assert isinstance(effect, Task)
        for _ in effect.gen:
            pass
    core.clock.advance(1e-3)


def _traced_bytes():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.costguard
@pytest.mark.parametrize("distinct_pids", [False, True],
                         ids=["one_pid", "pid_per_report"])
def test_a_decision_costs_the_registry_a_fixed_few_dozen_bytes(
        distinct_pids):
    """10 000 OVERLOADED reports from 4 sources against 256 FREE hosts
    grow the registry by under 48 bytes a decision (209 when the log
    kept a ``Reconfigure`` per decision), whether each report names the
    same pid or a new one."""
    core = RegistryCore(ManualClock(), "registry", lease=1e9,
                        decision_cost=0.0, command_cooldown=0.0)
    for i in range(HOSTS):
        core.handle(StatusUpdate(host=f"free{i}", state=SystemState.FREE,
                                 metrics={"loadavg1": 0.1}), f"free{i}")
    sources = [f"src{i}" for i in range(4)]

    def run(first, count):
        for k in range(first, first + count):
            _decide(core, sources[k % 4], 1000 + k if distinct_pids else 7)

    tracemalloc.start()
    try:
        run(0, WARM)
        before = _traced_bytes()
        run(WARM, DECISIONS)
        grown = _traced_bytes() - before
    finally:
        tracemalloc.stop()
    assert len(core.decisions) == WARM + DECISIONS
    assert core.decisions[-1].dest == "free0"
    assert grown / DECISIONS < 48, grown / DECISIONS


@pytest.mark.costguard
def test_counting_migrations_builds_none():
    """``len(core.decisions)`` over 100 000 logged decisions is the
    count the log keeps: under 1 KB allocated (0.30 s and 17.6 MB when
    it listed a record per migration), and the count a list of the
    migration records has."""
    core = RegistryCore(ManualClock(), "registry")
    plain = records()
    for k in range(100_000):
        core.reconfigurations.append(plain[k % len(plain)])
    tracemalloc.start()
    try:
        before = _traced_bytes()
        tracemalloc.reset_peak()
        counted = len(core.decisions)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grown < 1024, grown
    assert counted == len([r for r in core.reconfigurations
                           if r.effect == "migrate"])


def test_migrations_read_as_a_list():
    core = RegistryCore(ManualClock(), "registry")
    plain = records()
    for rec in plain:
        core.reconfigurations.append(rec)
    migrations = [r for r in plain if r.effect == "migrate"]
    decisions = core.decisions
    assert len(decisions) == len(migrations) == 4
    assert list(decisions) == migrations
    for i in range(-4, 4):
        assert decisions[i] == migrations[i], i
    assert decisions.index(migrations[2]) == 2 and migrations[0] in decisions
    for i in (4, -5):
        with pytest.raises(IndexError):
            decisions[i]
    assert list(RegistryCore(ManualClock(), "r").decisions) == []
