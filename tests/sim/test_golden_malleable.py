"""Golden-trace regression for the N:M reconfiguration pipeline.

The sibling fixture ``golden_trace.jsonl`` pins the rigid 1:1 pipeline
(and proves malleability-off runs are byte-identical to the pre-reshape
kernel); this one pins the reconfiguration *schedule* — when the
registry walks the reshape ladder, which hosts join the world, and how
the repartition barrier plays out — for a seeded storm scenario under
the malleable policy.  Regenerate (only when an *intentional*
behaviour change lands) with::

    PYTHONPATH=src python tests/sim/test_golden_malleable.py
"""

import io
import os

import pytest

from repro import Cluster, Rescheduler, ReschedulerConfig
from repro.cluster import CpuHog
from repro.core import malleable_policy
from repro.trace import EVENTS, Tracer, use
from repro.trace.exporters import export_jsonl, load_jsonl
from repro.workloads import MonteCarloPiApp

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_malleable.jsonl")
#: ≈ 120 reference CPU-seconds per rank at world size 2.
PARAMS = {"batches": 1200, "batch_size": 2000, "sample_cost": 1e-4,
          "seed": 2}


def run_traced(seed: int = 7) -> str:
    """One seeded malleable run (storm → grow trigger → repartition),
    exported as JSONL text."""
    tracer = Tracer()
    with use(tracer):
        cluster = Cluster(n_hosts=4, seed=seed)
        # max_world=4 pins a full ladder walk: grow to the cap, then
        # fall back to 1:1 decisions for the residual overload.
        rs = Rescheduler(
            cluster, policy=malleable_policy(max_world=4),
            config=ReschedulerConfig(interval=10.0, sustain=3),
        )
        world = rs.launch_mpi_app(
            MonteCarloPiApp, ["ws1", "ws2"], params=PARAMS,
            schema=MonteCarloPiApp(0).malleable_schema(),
        )

        def inject(env):
            yield env.timeout(40)
            CpuHog(cluster["ws1"], count=3, name="additional-tasks")

        cluster.env.process(inject(cluster.env))
        cluster.env.run(until=400.0)
        assert all(rt.status in ("done", "retired")
                   for rt in world.all_runtimes)
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


def test_golden_run_actually_reshapes(traced_text):
    # Guard against the fixture degenerating into a run where the
    # ladder never fires: the scenario must include a successful
    # expand with its poll-point repartition.
    assert '"app.expand"' in traced_text
    assert '"hpcm.repartition"' in traced_text


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    text = run_traced()
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {GOLDEN} ({len(text.splitlines())} records)")
