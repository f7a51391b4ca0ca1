"""End-to-end: a traced migration leaves the full event flow behind."""

import json

import pytest

from repro.analysis import run_efficiency_experiment
from repro.cli import main
from repro.metrics import phase_breakdown, span_durations
from repro.trace import Tracer, load_jsonl, use
from repro.trace.events import (
    EV_COMMANDER_SIGNAL,
    EV_HPCM_CAPTURE,
    EV_HPCM_DRAIN,
    EV_HPCM_MIGRATION,
    EV_HPCM_POLLPOINT,
    EV_HPCM_RESUME,
    EV_HPCM_SPAWN,
    EV_HPCM_TRANSFER,
    EV_MONITOR_REPORT,
    EV_MONITOR_SAMPLE,
    EV_REGISTRY_COMMAND,
    EV_REGISTRY_DECIDE,
    EV_REGISTRY_UPDATE,
    EV_RULE_EVALUATE,
)

from ..catalogued import assert_catalogued


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    with use(tracer):
        result = run_efficiency_experiment()
    return tracer, result


def test_every_layer_appears_in_the_trace(traced_run):
    tracer, _ = traced_run
    names = {r.name for r in tracer.records}
    assert {EV_MONITOR_SAMPLE, EV_MONITOR_REPORT} <= names
    assert EV_RULE_EVALUATE in names
    assert {EV_REGISTRY_UPDATE, EV_REGISTRY_DECIDE,
            EV_REGISTRY_COMMAND} <= names
    assert EV_COMMANDER_SIGNAL in names
    assert {EV_HPCM_POLLPOINT, EV_HPCM_SPAWN, EV_HPCM_CAPTURE,
            EV_HPCM_TRANSFER, EV_HPCM_RESUME, EV_HPCM_DRAIN,
            EV_HPCM_MIGRATION} <= names


def test_trace_names_all_catalogued(traced_run):
    tracer, _ = traced_run
    assert_catalogued(tracer.records)


def test_migration_span_matches_the_record(traced_run):
    tracer, result = traced_run
    (mig,) = [r for r in tracer.by_name(EV_HPCM_MIGRATION) if r.is_span]
    assert mig.attrs["succeeded"] is True
    assert mig.dur == pytest.approx(result["total_s"], abs=1e-6)
    # sub-phase spans nest inside the migration window
    for name in (EV_HPCM_SPAWN, EV_HPCM_CAPTURE, EV_HPCM_TRANSFER):
        for span in tracer.by_name(name):
            assert span.t >= mig.t - 1e-9
            assert span.t + span.dur <= mig.t + mig.dur + 1e-9


def test_monitor_samples_are_spans_with_states(traced_run):
    tracer, _ = traced_run
    samples = tracer.by_name(EV_MONITOR_SAMPLE)
    assert samples and all(s.is_span for s in samples)
    assert all("state" in s.attrs for s in samples)
    assert {"ws1", "ws2"} <= {s.host for s in samples}


def test_decision_flows_into_command_and_signal(traced_run):
    tracer, _ = traced_run
    (decide,) = tracer.by_name(EV_REGISTRY_DECIDE)
    (command,) = tracer.by_name(EV_REGISTRY_COMMAND)
    (signal,) = tracer.by_name(EV_COMMANDER_SIGNAL)
    assert decide.attrs["dest"] == command.attrs["dest"]
    assert signal.attrs["dest"] == command.attrs["dest"]
    assert signal.attrs["delivered"] is True


def test_metrics_phase_helpers(traced_run):
    tracer, _ = traced_run
    durs = span_durations(tracer.records)
    assert EV_HPCM_MIGRATION in durs
    assert all(d > 0 for d in durs[EV_HPCM_SPAWN] + durs[EV_HPCM_TRANSFER])
    rows = {name: (count, total)
            for name, count, total, _mean in phase_breakdown(tracer.records)}
    assert rows[EV_HPCM_MIGRATION] == (1, sum(durs[EV_HPCM_MIGRATION]))


# --------------------------------------------------------------- CLI
def test_run_subcommand_with_trace_flag(tmp_path, capsys):
    path = tmp_path / "fig7.jsonl"
    assert main(["run", "fig7", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace written" in out and "per-phase span durations" in out
    records = load_jsonl(str(path))
    names = {r.name for r in records}
    assert EV_HPCM_MIGRATION in names and EV_MONITOR_SAMPLE in names


def test_run_trace_json_extension_writes_chrome(tmp_path, capsys):
    path = tmp_path / "fig7.json"
    assert main(["run", "fig7", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chrome format" in out and "per-phase span durations" in out
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


def test_run_trace_other_extension_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "fig7.trace"
    assert main(["run", "fig7", "--trace", str(path)]) == 0
    assert "jsonl format" in capsys.readouterr().out
    assert load_jsonl(str(path))
