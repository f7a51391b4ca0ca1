"""Golden-trace regression: the kernel optimizations must not change
*any* observable behaviour of a seeded end-to-end rescheduling run.

The fixture ``golden_trace.jsonl`` was exported from a traced run
before the hot-path work on the simulation kernel; every run since
must emit a byte-identical JSONL trace.  Regenerate (only when an
*intentional* behaviour change lands) with::

    PYTHONPATH=src python tests/sim/test_golden_trace.py
"""

import io
import os

import pytest

from repro import Cluster, Rescheduler, ReschedulerConfig, policy_2
from repro.cluster import CpuHog
from repro.trace import EVENTS, Tracer, use
from repro.trace.exporters import export_jsonl, load_jsonl
from repro.workloads import TestTreeApp

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.jsonl")
PARAMS = {"levels": 9, "trees": 30, "node_cost": 2e-3, "seed": 1}


def run_traced(seed: int = 7) -> str:
    """One seeded rescheduling run (monitor → rules → registry →
    commander → HPCM migration), exported as JSONL text."""
    tracer = Tracer()
    with use(tracer):
        cluster = Cluster(n_hosts=3, seed=seed)
        rs = Rescheduler(
            cluster, policy=policy_2(),
            config=ReschedulerConfig(interval=10.0, sustain=3),
        )
        app = rs.launch_app(TestTreeApp(), "ws1", params=PARAMS)

        def inject(env):
            yield env.timeout(50)
            CpuHog(cluster["ws1"], count=4, name="extra")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=app.done)
        cluster.env.run(until=cluster.env.now + 30)
    buf = io.StringIO()
    export_jsonl(tracer.records, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def traced_text():
    return run_traced()


def test_trace_matches_golden_fixture(traced_text):
    with open(GOLDEN, "r", encoding="utf-8", newline="") as fh:
        golden = fh.read()
    assert traced_text == golden


def test_records_name_catalogued_events_of_their_kind(traced_text):
    # This module also runs as a script (fixture regeneration), so
    # the check is spelled out here, not imported from tests/.
    for rec in load_jsonl(io.StringIO(traced_text)):
        assert rec.name in EVENTS, rec.name
        assert rec.is_span == (EVENTS[rec.name].kind == "span"), rec.name


def test_golden_run_actually_migrates(traced_text):
    # Guard against the fixture silently degenerating into a run where
    # nothing happens: the scenario must include a full migration.
    assert '"hpcm.migration"' in traced_text
    assert '"registry.decide"' in traced_text


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    text = run_traced()
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {GOLDEN} ({len(text.splitlines())} records)")
