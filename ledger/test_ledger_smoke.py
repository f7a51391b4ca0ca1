"""Smoke test of the ledger (``pytest ledger/``; outside tier-1).

Runs every workload once per pass with ``--quick`` and checks the
result against ``BENCHMARK.json``; the numbers themselves are not
asserted — one unwarmed iteration is not a measurement.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import worker  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]


def run_ledger(*args, cwd=ROOT, script=LEDGER / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
        check=False,
    )


def test_contract_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["ledger"]
    assert CONTRACT["command"] == ["python3", "ledger/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"])


def test_generators_match_contract():
    assert list(workloads.GENERATORS) == WORKLOAD_NAMES


@pytest.mark.skipif(not Path("/proc/stat").exists(),
                    reason="the live sensors read procfs")
def test_heartbeats_look_like_a_real_nodes():
    """Same keys in the same order as a real ``LiveNode`` heartbeat,
    every key in the decision plane's vocabulary, and about the same
    number of bytes on the wire."""
    import random
    import time

    sys.path.insert(0, str(ROOT / "src"))
    from repro.live import LiveNode
    from repro.protocol import StatusUpdate, messages
    from repro.registry.hostmatrix import METRIC_COLUMNS
    from repro.rules.states import SystemState

    node = LiveNode("ledger-probe")
    try:
        time.sleep(0.05)  # the windowed CPU and net samplers need a window
        real = node._status_update().metrics
    finally:
        node.stop()
    assert tuple(real) == workloads.HEARTBEAT_METRICS
    assert set(real) <= set(METRIC_COLUMNS)

    def wire_bytes(metrics):
        update = StatusUpdate(host="h000", state=SystemState.FREE,
                              metrics=metrics)
        return len(messages.encode(update, "127.0.0.1:40000", 1.5e9))

    rng = random.Random(0)
    generated = [workloads.sensor_snapshot(rng, rng.randrange(2))
                 for _ in range(200)]
    assert all(tuple(m) == workloads.HEARTBEAT_METRICS for m in generated)
    assert all(isinstance(v, float) for m in generated for v in m.values())
    mean = sum(map(wire_bytes, generated)) / len(generated)
    assert 0.9 * wire_bytes(real) <= mean <= 1.15 * wire_bytes(real)


def test_generators_are_pure_functions_of_the_seed():
    for name, generate in workloads.GENERATORS.items():
        assert generate(3) == generate(3), name
        assert generate(3) != generate(4), name
    live = workloads.live_ingest(5)
    assert live.heartbeats(2) == workloads.live_ingest(5).heartbeats(2)
    assert live.heartbeats(2) != live.heartbeats(3)
    assert sorted(live.hosts) == sorted(workloads.live_ingest(6).hosts)
    assert workloads.INGEST_WINDOW <= 8


def test_speed_gauge_stands_apart_from_the_program():
    """The gauge reads the machine, not the program: it imports nothing
    of ``repro``, and leaves the collector as it found it."""
    import ast
    import gc

    import speed

    tree = ast.parse((LEDGER / "speed.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        (node.module or "").split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert imported <= {"__future__", "gc", "os", "time", "operator"}
    assert gc.isenabled()
    assert speed.slowdown() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.slowdown()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_run_emits_every_declared_metric(workload, trace):
    proc = run_ledger("--workload", workload, "--seed", "1", "--quick",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, m["name"]
    if trace:
        spans = json.loads(
            (LEDGER / "results" / f"trace-{workload}.json").read_text())
        assert spans["workload"] == workload
        assert spans["spans"] and "iteration" in spans["names"]


def test_failing_check_raises_fail_share():
    good = {
        "policy1": {"checksum_ok": True, "migrated_to": None,
                    "total_s": 990.9},
        "policy2": {"checksum_ok": True, "migrated_to": "ws2",
                    "total_s": 468.8},
        "policy3": {"checksum_ok": True, "migrated_to": "ws4",
                    "total_s": 301.1},
    }
    tally = worker.Tally()
    tally.add(worker.Outcome(workloads.check_table2(good), {}))
    assert tally.failed == 0 and tally.attempted == 7
    bad = dict(good, policy3={"checksum_ok": False, "migrated_to": None,
                              "total_s": 301.1})
    tally.add(worker.Outcome(workloads.check_table2(bad), {}))
    assert tally.failed == 2 and tally.attempted == 14
    assert tally.failed / tally.attempted > 0
    assert workloads.check_storm({"pi_ok": False}) == [False] * 3
    assert workloads.check_fig5({"load1_without": 0.25,
                                 "load1_overhead": -0.01}) == [True, False]
    assert workloads.check_folded({"h1": {"a": 1.0}}, {"h1": {"a": 2.0}}) \
        == [False]
    assert not workloads.check_command(None, "src", "h000")


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and ledger/: nothing to measure, so the
    command fails without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  ".pytest_cache"))
    proc = run_ledger("--workload", "table2", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path,
                      script=tmp_path / "ledger" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.decode().strip().endswith("}")
