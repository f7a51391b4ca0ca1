#!/usr/bin/env python
"""Anatomy of one migration — the §5.2 efficiency experiment, traced.

Reproduces the paper's Figure 7/8 timeline with the structured tracing
subsystem recording every step: monitor samples, rule evaluations,
registry decision, commander signal and the HPCM spawn / capture /
transfer / drain spans.  Prints the phase breakdown (both from the
migration record and from the trace spans), ASCII plots of CPU
utilization and network rates around the migration window, and writes
the full trace as JSONL for ``load_jsonl`` and ``jq``, or for
conversion to Chrome/Perfetto format (see docs/tracing.md).

Run:  python examples/migration_trace.py [trace-out.jsonl]
"""

import sys

from repro.analysis import run_efficiency_experiment
from repro.metrics import TimeSeries, ascii_plot, format_phase_table
from repro.trace import Tracer, export_jsonl, use
from repro.trace.events import EV_HPCM_MIGRATION


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "migration_trace.jsonl"

    print("running the efficiency scenario "
          "(app at t=280s, overload at t=428s) ...")
    tracer = Tracer()
    with use(tracer):
        s = run_efficiency_experiment()
    assert s["succeeded"]
    series = {name: TimeSeries.from_points(points)
              for name, points in s["series"].items()}

    mig_spans = [r for r in tracer.by_name(EV_HPCM_MIGRATION) if r.is_span]
    assert mig_spans and mig_spans[0].attrs.get("succeeded")

    print(f"""
migration timeline (paper values in brackets):
  load injected            t = {s["load_injected_at"]:7.1f} s
  overload confirmed       t = {s["load_injected_at"] + s["warmup_s"]:7.1f} s   \
(warm-up {s["warmup_s"]:.1f} s [72 s])
  decision took                {s["decision_s"] * 1000:7.1f} ms  [2 ms]
  poll-point reached           {s["to_pollpoint_s"]:7.2f} s   [1.4 s]
  initialized process up       {s["init_s"]:7.2f} s   [0.3 s]
  execution resumed            {s["resume_s"]:7.2f} s   [<1 s]
  residual state drained       {s["drain_s"]:7.2f} s
  migration complete           {s["total_s"]:7.2f} s   [7.5 s]
  memory state moved           {s["memory_mb"]:7.1f} MB
""")
    print(format_phase_table(tracer.records,
                             title="same story, from the trace spans"))
    print()
    print(ascii_plot(
        [series["cpu_source"], series["cpu_dest"]],
        title="Figure 7 — CPU utilization",
        labels=["source ws1", "destination ws2"],
    ))
    print()
    print(ascii_plot(
        [series["send_source"], series["recv_dest"]],
        title="Figure 8 — network KB/s (state-transfer burst)",
        labels=["ws1 send", "ws2 recv"],
    ))
    print()
    print("execution resumed", s["completed_at"] - s["resumed_at"],
          "seconds BEFORE the transfer finished — restoration overlaps "
          "computation, as in the paper.")
    print("checksum identical to an unmigrated run:", s["checksum_ok"])

    export_jsonl(tracer.records, out_path)
    print(f"trace written: {out_path} ({len(tracer.records)} records)")


if __name__ == "__main__":
    main()
