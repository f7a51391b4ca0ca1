"""Sweep cells: experiment runners returning JSON-safe summaries.

Each cell is a **pure function of ``(config, seed)``** — no ambient
state, no wall-clock, no filesystem — so the sweep runner may execute
it in any worker process (or skip it on a cache hit) and still produce
exactly the result of a serial run.  Summaries hold scalars plus the
``points()`` form of the figure series, so plots can be rebuilt from a
cached cell with :meth:`repro.metrics.TimeSeries.from_points` without
re-simulating.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


def _points(series) -> list:
    return [list(p) for p in series.points()]


def _axis_kwargs(axes: frozenset, config: Dict[str, Any]) -> Dict[str, Any]:
    """A runner's keyword arguments: whichever of the cell's axes
    (:data:`CELL_AXES` — the one place they are listed) the config
    sets; the runner's own defaults cover the rest."""
    return {key: value for key, value in config.items() if key in axes}


def cell_fig5(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 5 — rescheduler load/CPU overhead (§5.1)."""
    from ..analysis import run_overhead_experiment

    r = run_overhead_experiment(
        duration=config.get("duration", 3600.0),
        seed=seed,
        interval=config.get("interval", 10.0),
        cycle_cost=config.get("cycle_cost"),
        settle=config.get("settle", 900.0),
        hosts=config.get("hosts", 2),
    )
    return {
        "load1_without": r.load1_without,
        "load1_with": r.load1_with,
        "load1_overhead": r.load1_overhead,
        "load5_overhead": r.load5_overhead,
        "cpu_overhead": r.cpu_overhead,
        "series": {
            "load1_without": _points(r.without_rs.load1),
            "load1_with": _points(r.with_rs.load1),
        },
    }


def cell_fig6(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 6 — rescheduler communication overhead (§5.1)."""
    from ..analysis import run_overhead_experiment

    r = run_overhead_experiment(
        duration=config.get("duration", 3600.0),
        seed=seed,
        interval=config.get("interval", 10.0),
        cycle_cost=config.get("cycle_cost"),
        settle=config.get("settle", 900.0),
        hosts=config.get("hosts", 2),
    )
    return {
        "send_kbs_without": r.send_kbs_without,
        "send_kbs_with": r.send_kbs_with,
        "recv_kbs_without": r.recv_kbs_without,
        "recv_kbs_with": r.recv_kbs_with,
        "comm_overhead": r.comm_overhead,
        "series": {
            "send_without": _points(r.without_rs.send_kbs),
            "send_with": _points(r.with_rs.send_kbs),
        },
    }


def _efficiency(config: Dict[str, Any], seed: int):
    from ..analysis import run_efficiency_experiment

    kwargs = _axis_kwargs(_EFFICIENCY_AXES, config)
    return run_efficiency_experiment(seed=seed, **kwargs)


def cell_fig7(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 7 — migration phases, CPU view (§5.2)."""
    r = _efficiency(config, seed)
    summary: Dict[str, Any] = dict(r.phase_summary())
    summary["checksum_ok"] = r.checksum_ok
    summary["succeeded"] = r.record.succeeded
    summary["completed_at"] = r.record.completed_at
    summary["series"] = {
        "cpu_source": _points(r.cpu_source),
        "cpu_dest": _points(r.cpu_dest),
    }
    return summary


def cell_fig8(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Figure 8 — migration state-transfer burst, network view (§5.2)."""
    r = _efficiency(config, seed)
    rec = r.record
    return {
        "drain_s": rec.drain_seconds,
        "memory_mb": rec.memory_bytes / 2**20,
        "checksum_ok": r.checksum_ok,
        "succeeded": rec.succeeded,
        "ordered_at": rec.ordered_at,
        "resumed_at": rec.resumed_at,
        "completed_at": rec.completed_at,
        "app_started_at": r.app_started_at,
        "load_injected_at": r.load_injected_at,
        "series": {
            "send_source": _points(r.send_source),
            "recv_dest": _points(r.recv_dest),
        },
    }


def cell_table2(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Table 2 — policy comparison (§5.3)."""
    from ..analysis import run_table2

    kwargs = _axis_kwargs(CELL_AXES["table2"], config)
    results = run_table2(seed=seed, **kwargs)
    return {
        f"policy{i}": {
            "total_s": res.total_seconds,
            "migrated_to": res.migrated_to,
            "source_s": res.source_seconds,
            "dest_s": res.dest_seconds,
            "migration_s": res.migration_seconds,
            "checksum_ok": res.checksum_ok,
        }
        for i, res in results.items()
    }


def cell_malleability(config: Dict[str, Any],
                      seed: int) -> Dict[str, Any]:
    """Malleability — rigid vs N:M reshape (docs/malleability.md)."""
    from ..analysis import run_malleability_experiment

    kwargs = _axis_kwargs(CELL_AXES["malleability"], config)
    r = run_malleability_experiment(seed=seed, **kwargs)
    return {
        "rigid_s": r.rigid.completed_at,
        "malleable_s": r.malleable.completed_at,
        "speedup": r.speedup,
        "pi_ok": r.rigid.pi_ok and r.malleable.pi_ok,
        "peak_world": r.malleable.peak_world,
        "migrations_rigid": r.rigid.migrations,
        "reshapes": r.malleable.reshapes,
    }


#: Cell name → runner.  Keys are the ``repro sweep`` experiment names.
CELLS: Dict[str, Callable[[Dict[str, Any], int], Dict[str, Any]]] = {
    "fig5": cell_fig5,
    "fig6": cell_fig6,
    "fig7": cell_fig7,
    "fig8": cell_fig8,
    "table2": cell_table2,
    "malleability": cell_malleability,
}

#: The config keys each cell actually reads — the valid ``--set`` axes.
#: ``plan_sweep`` validates overrides against the union for the planned
#: experiments, so a typo'd or mis-plumbed axis fails at plan time
#: instead of silently riding along in every cache key.
_EFFICIENCY_AXES = frozenset({
    "app_start", "load_at", "duration", "hogs", "sustain", "levels",
    "trees", "node_cost", "serialize_rate", "chunks", "resume_fraction",
})
CELL_AXES: Dict[str, frozenset] = {
    "fig5": frozenset({"duration", "interval", "cycle_cost", "settle",
                       "hosts"}),
    "fig6": frozenset({"duration", "interval", "cycle_cost", "settle",
                       "hosts"}),
    "fig7": _EFFICIENCY_AXES,
    "fig8": _EFFICIENCY_AXES,
    "table2": frozenset({"params", "load_at", "hogs", "sustain",
                         "bulk_rate", "ws3_load", "max_duration"}),
    "malleability": frozenset({
        "params", "hosts", "load_at", "hogs", "sustain", "grow_at",
        "shrink_at", "min_efficiency", "max_duration",
    }),
}


def run_cell(
    experiment: str, config: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Run one cell by name.  Module-level (picklable), so it is the
    function the process pool ships to workers."""
    try:
        cell = CELLS[experiment]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(CELLS)}"
        ) from None
    return cell(dict(config), seed)
