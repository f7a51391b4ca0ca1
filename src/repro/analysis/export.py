"""CSV export of experiment results (for plotting with external tools).

``repro run`` prints ASCII summaries and EXPERIMENTS.json pins the
sweep cells' summaries; these helpers dump the raw series/tables so a
downstream user can regenerate publication-quality figures.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, Mapping

from ..metrics.timeseries import TimeSeries
from .efficiency import EfficiencyResult
from .overhead import OverheadResult
from .policies import PolicyRunResult


def export_series(path: str, series: Mapping[str, TimeSeries]) -> str:
    """Write named time series in long format: series,t,value."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "t_seconds", "value"])
        for name, ts in series.items():
            for t, v in ts.points():
                writer.writerow([name, repr(t), repr(v)])
    return path


def export_overhead(result: OverheadResult, directory: str) -> Dict[str, str]:
    """Figure 5 + 6 raw data: one CSV per figure plus a summary."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    paths["fig5"] = export_series(
        os.path.join(directory, "fig5_load.csv"),
        {
            "load1_without": result.without_rs.load1,
            "load1_with": result.with_rs.load1,
            "load5_without": result.without_rs.load5,
            "load5_with": result.with_rs.load5,
        },
    )
    paths["fig6"] = export_series(
        os.path.join(directory, "fig6_comm.csv"),
        {
            "send_without": result.without_rs.send_kbs,
            "send_with": result.with_rs.send_kbs,
            "recv_without": result.without_rs.recv_kbs,
            "recv_with": result.with_rs.recv_kbs,
        },
    )
    summary = os.path.join(directory, "overhead_summary.csv")
    with open(summary, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "value"])
        writer.writerow(["load_overhead", repr(result.load1_overhead)])
        writer.writerow(["cpu_overhead", repr(result.cpu_overhead)])
        writer.writerow(["comm_overhead", repr(result.comm_overhead)])
    paths["summary"] = summary
    return paths


def export_efficiency(result: EfficiencyResult,
                      directory: str) -> Dict[str, str]:
    """Figure 7 + 8 raw data plus the phase breakdown."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    paths["fig7"] = export_series(
        os.path.join(directory, "fig7_cpu.csv"),
        {
            "cpu_source": result.cpu_source,
            "cpu_dest": result.cpu_dest,
        },
    )
    paths["fig8"] = export_series(
        os.path.join(directory, "fig8_comm.csv"),
        {
            "send_source": result.send_source,
            "recv_dest": result.recv_dest,
        },
    )
    phases = os.path.join(directory, "migration_phases.csv")
    with open(phases, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "seconds"])
        for key, value in result.phase_summary().items():
            writer.writerow([key, repr(value)])
    paths["phases"] = phases
    return paths


def export_sweep(payload: Mapping, path: str) -> str:
    """Flatten a ``repro sweep`` outcome payload to long-format CSV.

    One row per scalar metric per cell (series are skipped — they live
    in the JSON summaries); nested dicts like table2's per-policy rows
    flatten with dotted names (``policy2.total_s``).
    """

    def scalars(summary: Mapping, prefix: str = ""):
        for name, value in sorted(summary.items()):
            if name == "series":
                continue
            if isinstance(value, Mapping):
                yield from scalars(value, prefix=f"{prefix}{name}.")
            else:
                yield f"{prefix}{name}", value

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "replica", "seed",
                         "metric", "value"])
        for cell in payload["cells"]:
            for metric, value in scalars(cell["summary"]):
                writer.writerow([
                    cell["experiment"], cell["replica"], cell["seed"],
                    metric,
                    repr(value) if isinstance(value, float) else value,
                ])
    return path


def export_table2(results: Mapping[int, PolicyRunResult],
                  path: str) -> str:
    """Table 2 as CSV."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "total_seconds", "migrated_to",
                         "source_seconds", "dest_seconds",
                         "migration_seconds", "checksum_ok"])
        for n in sorted(results):
            r = results[n]
            writer.writerow([
                r.policy_name, repr(r.total_seconds),
                r.migrated_to or "",
                repr(r.source_seconds), repr(r.dest_seconds),
                repr(r.migration_seconds)
                if r.migration_seconds is not None else "",
                r.checksum_ok,
            ])
    return path
