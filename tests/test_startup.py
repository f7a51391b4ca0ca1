"""A process imports what it runs, counted in fresh interpreters.

Package ``__init__``s resolve their public names on first use, so a
live registry or node never loads the simulator, a live registry loads
no node, a live node loads no numpy, and ``repro --help`` loads
neither the simulator nor numpy.  Each check reads ``sys.modules`` of
a new interpreter after it ran one entry point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.costguard

REPO = Path(repro.__file__).resolve().parents[2]

#: What only the simulator, its experiments and their reports use.
SIMULATOR = ("analysis", "cluster", "core", "hpcm", "mpi", "perf",
             "metrics", "schema", "sim", "workloads")

#: ``python -m repro <args>``, inside the interpreter that reports.
CLI = """\
import runpy, sys
sys.argv = ["repro", *{args!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


def _loaded(code):
    """Module names a fresh interpreter holds after running *code*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + report], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _within(modules, packages):
    return sorted(m for m in modules for p in packages
                  if m == f"repro.{p}" or m.startswith(f"repro.{p}."))


def test_a_live_process_and_the_cli_import_no_simulator():
    """The live import loads 36 ``repro`` modules (87 when every package
    ``__init__`` imported its siblings), ``--help`` loads 4 and no
    numpy (92 plus numpy then)."""
    live = _loaded(
        "from repro.live import LiveEndpoint, LiveNode, LiveRegistry")
    assert "repro.live.registry" in live
    assert _within(live, SIMULATOR) == []
    for args in (["--help"], ["list"]):
        cli = _loaded(CLI.format(args=args))
        assert "repro.cli" in cli
        assert "numpy" not in cli
        assert _within(cli, SIMULATOR) == []
    lint = _loaded(CLI.format(args=["lint", "examples/configs", "--strict"]))
    assert "repro.lint.runner" in lint
    assert _within(lint, ("cluster", "sim", "hpcm", "mpi", "analysis")) == []


def test_planning_a_sweep_imports_no_runner():
    """``run_cell`` looks its runner up when a cell runs, so planning a
    sweep (``--dry-run``, ``--list-axes``) loads no simulator."""
    cells = _loaded("import repro.perf.experiments")
    assert "repro.perf.experiments" in cells
    assert _within(cells, ("analysis",)) == []


#: What a live node runs and a live registry does not.
NODE_ONLY = ("repro.live.node", "repro.live.tasks", "repro.live.proc_sensors",
             "repro.monitor.core", "repro.commander",
             *(f"repro.rules.{m}" for m in (
                 "builtin", "evaluator", "expr", "model", "parser",
                 "vector")))


def test_a_live_registry_loads_no_node():
    """The ledger worker's live imports: 24 ``repro`` modules, 40 when
    ``repro.live`` and ``repro.rules`` imported every submodule."""
    registry = _loaded(
        "from repro.live import LiveEndpoint, LiveRegistry\n"
        "from repro.protocol import MigrateCommand, StatusUpdate\n"
        "from repro.rules.states import SystemState\n")
    assert "repro.live.registry" in registry
    assert sorted(registry & set(NODE_ONLY)) == []
    assert _within(registry, SIMULATOR) == []


def test_a_live_node_loads_no_numpy():
    """A node that ran two monitor cycles holds no numpy (it loaded it
    twice over, through ``LiveRegistry`` and ``rules.vector``, when
    both package ``__init__``s were eager)."""
    node = _loaded("""\
from repro.live import LiveNode
from repro.live.transport import LiveEndpoint
from repro.protocol.messages import StatusQuery
node = LiveNode("n", registry_address=None, interval=0.05)
probe = LiveEndpoint("probe")
try:
    for _ in range(2):
        probe.send_message(node.address, StatusQuery(host=node.address),
                           timestamp=0.0)
        assert probe.recv(timeout=10.0) is not None
    assert node.monitor.cycles >= 2, node.monitor.cycles
finally:
    probe.close()
    node.stop()
""")
    assert "repro.monitor.core" in node
    assert "numpy" not in node
    assert _within(node, SIMULATOR) == []


def test_a_policy_loads_no_numpy():
    """A node given a ``MigrationPolicy`` and ``repro lint`` of the
    example configs hold no numpy: the policy checks its strategy name
    (P103) against ``registry.strategies``, which imports numpy only
    inside ``best_fit`` (both loaded it through that module before)."""
    node = _loaded("""\
from repro.core.policy import policy_1
from repro.live import LiveNode
node = LiveNode("n", registry_address=None, policy=policy_1())
node.stop()
""")
    assert "repro.registry.strategies" in node
    assert "numpy" not in node
    lint = _loaded(CLI.format(args=["lint", "examples/configs", "--strict"]))
    assert "repro.registry.strategies" in lint
    assert "numpy" not in lint


def test_a_live_registry_decides_without_numpy():
    """A live registry that took 64 registrations over the wire and a
    FREE heartbeat from each host answers an OVERLOADED report with a
    migration to the first registered host, and one under a best-fit
    policy with the least-loaded host, and holds no numpy (the first
    decision loaded it for the mask chain before the pick walked the
    rows)."""
    registry = _loaded("""\
import sys, time
from repro.core.policy import MigrationPolicy
from repro.live import LiveEndpoint, LiveRegistry
from repro.protocol import MigrateCommand, Register, StatusUpdate
from repro.rules.states import SystemState

def wait_for(predicate):
    deadline = time.monotonic() + 30.0
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)

def decide(registry, loads):
    \"\"\"Register one host per load, push each FREE, report the
    client OVERLOADED: the destination of the MigrateCommand.\"\"\"
    client = LiveEndpoint("client")
    try:
        hosts = [f"h{i}" for i in range(len(loads))]
        for n, host in enumerate(hosts, 1):  # one at a time: row order
            assert client.send_message(registry.address, Register(
                host=host, static_info={"cpu_speed": 1.0}), timestamp=0.0)
            wait_for(lambda: registry.table.matrix.n == n)
        for host, load in zip(hosts, loads):
            assert client.send_message(registry.address, StatusUpdate(
                host=host, state=SystemState.FREE,
                metrics={"loadavg1": load}), timestamp=1.0)
        wait_for(lambda: sum(r.updates_received
                             for r in registry.table.records()) == len(hosts))
        assert "numpy" not in sys.modules
        process = {"pid": 7, "name": "sqrt_sum", "start_time": 0.0,
                   "est_completion": 60.0, "data_locality": 0.0}
        assert client.send_message(registry.address, StatusUpdate(
            host=client.address, state=SystemState.OVERLOADED,
            metrics={"loadavg1": 3.0}, processes=[process]), timestamp=2.0)
        while True:
            kind, payload = client.recv(timeout=30.0)
            if kind == "msg" and isinstance(payload[0], MigrateCommand):
                break
        command = payload[0]
        assert (command.host, command.pid) == (client.address, 7), command
        assert len(registry.decisions) == 1
        return command.dest
    finally:
        client.close()
        registry.stop()

first = LiveRegistry(lease=3600.0, command_cooldown=0.0)
assert decide(first, [0.1] * 64) == "h0"
assert "numpy" not in sys.modules
best = LiveRegistry(lease=3600.0, command_cooldown=0.0,
                    policy=MigrationPolicy(name="least-loaded",
                                           strategy="best_fit"))
assert decide(best, [0.5, 0.3, 0.2, 0.2]) == "h2"
""")
    assert "repro.registry.hostmatrix" in registry
    assert "repro.registry.strategies" in registry
    assert "numpy" not in registry


def test_a_first_fit_decision_reads_one_row():
    """A first-fit decision over 4096 FREE hosts makes the calls one
    over 2 hosts makes: the walk stops at the first fit, row 0."""
    from repro.entity.clock import ManualClock
    from repro.entity.outbox import Task
    from repro.protocol import StatusUpdate
    from repro.registry.core import RegistryCore
    from repro.rules.states import SystemState

    from .callcount import count_calls

    process = {"pid": 7, "name": "app", "start_time": 0.0,
               "est_completion": 60.0, "data_locality": 0.0}
    calls, walked = {}, {}
    for n_rows in (2, 4096):
        core = RegistryCore(ManualClock(), "registry", decision_cost=0.0)
        hosts = [f"ws{i}" for i in range(n_rows)]
        core.table.register_many(hosts, [{} for _ in hosts])
        (task,) = core.handle(StatusUpdate(
            host="src", state=SystemState.OVERLOADED,
            metrics={"loadavg1": 3.0}, processes=[process]), "src")
        assert isinstance(task, Task)
        rows = core.table.fresh_rows
        seen = []
        core.table.fresh_rows = lambda: (seen.append(r) or r for r in rows())
        calls[n_rows] = count_calls(lambda: list(task.gen))
        walked[n_rows] = seen
        assert core.decisions[0].dest == "ws0"
    assert [row for row, _ in walked[4096]] == [0], walked
    assert calls[4096] == calls[2], calls
