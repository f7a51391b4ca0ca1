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
from repro.metrics import ascii_plot, format_phase_table
from repro.trace import Tracer, export_jsonl, use
from repro.trace.events import EV_HPCM_MIGRATION


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "migration_trace.jsonl"

    print("running the efficiency scenario "
          "(app at t=280s, overload at t=428s) ...")
    tracer = Tracer()
    with use(tracer):
        result = run_efficiency_experiment()
    rec = result.record
    assert rec is not None and rec.succeeded

    mig_spans = [r for r in tracer.by_name(EV_HPCM_MIGRATION) if r.is_span]
    assert mig_spans and mig_spans[0].attrs.get("succeeded")

    print(f"""
migration timeline (paper values in brackets):
  load injected            t = {result.load_injected_at:7.1f} s
  overload confirmed       t = {result.decision.at:7.1f} s   \
(warm-up {result.warmup_seconds:.1f} s [72 s])
  decision took                {rec.decision_seconds * 1000:7.1f} ms  [2 ms]
  poll-point reached           {rec.time_to_pollpoint:7.2f} s   [1.4 s]
  initialized process up       {rec.init_seconds:7.2f} s   [0.3 s]
  execution resumed            {rec.resume_seconds:7.2f} s   [<1 s]
  residual state drained       {rec.drain_seconds:7.2f} s
  migration complete           {rec.total_seconds:7.2f} s   [7.5 s]
  memory state moved           {rec.memory_bytes / 2**20:7.1f} MB
""")
    print(format_phase_table(tracer.records,
                             title="same story, from the trace spans"))
    print()
    print(ascii_plot(
        [result.cpu_source, result.cpu_dest],
        title="Figure 7 — CPU utilization",
        labels=["source ws1", "destination ws2"],
    ))
    print()
    print(ascii_plot(
        [result.send_source, result.recv_dest],
        title="Figure 8 — network KB/s (state-transfer burst)",
        labels=["ws1 send", "ws2 recv"],
    ))
    print()
    print("execution resumed", rec.completed_at - rec.resumed_at,
          "seconds BEFORE the transfer finished — restoration overlaps "
          "computation, as in the paper.")
    print("checksum identical to an unmigrated run:", result.checksum_ok)

    export_jsonl(tracer.records, out_path)
    print(f"trace written: {out_path} ({len(tracer.records)} records)")


if __name__ == "__main__":
    main()
