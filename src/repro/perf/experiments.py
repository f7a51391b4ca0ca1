"""Sweep cells: experiment runners returning JSON-safe summaries.

Each cell is a **pure function of ``(config, seed)``** — no ambient
state, no wall-clock, no filesystem — so the sweep runner may execute
it in any worker process and still produce exactly the result of a
serial run.  Summaries hold scalars plus the ``points()`` form of the
figure series, so plots can be rebuilt from a saved summary with
:meth:`repro.metrics.TimeSeries.from_points` without re-simulating.
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


def cell_overhead(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Rescheduler overhead, read as load and CPU (Figure 5) and as
    communication (Figure 6) — §5.1."""
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
        "send_kbs_without": r.send_kbs_without,
        "send_kbs_with": r.send_kbs_with,
        "recv_kbs_without": r.recv_kbs_without,
        "recv_kbs_with": r.recv_kbs_with,
        "comm_overhead": r.comm_overhead,
        "series": {
            "load1_without": _points(r.without_rs.load1),
            "load1_with": _points(r.with_rs.load1),
            "send_without": _points(r.without_rs.send_kbs),
            "send_with": _points(r.with_rs.send_kbs),
        },
    }


def cell_efficiency(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One migration, read as phases and CPU (Figure 7) and as the
    state-transfer burst on the network (Figure 8) — §5.2."""
    from ..analysis import run_efficiency_experiment

    r = run_efficiency_experiment(
        seed=seed, **_axis_kwargs(CELL_AXES["efficiency"], config))
    rec = r.record
    summary: Dict[str, Any] = dict(r.phase_summary())
    summary.update({
        "checksum_ok": r.checksum_ok,
        "succeeded": rec.succeeded,
        "ordered_at": rec.ordered_at,
        "resumed_at": rec.resumed_at,
        "completed_at": rec.completed_at,
        "app_started_at": r.app_started_at,
        "load_injected_at": r.load_injected_at,
        "series": {
            "cpu_source": _points(r.cpu_source),
            "cpu_dest": _points(r.cpu_dest),
            "send_source": _points(r.send_source),
            "recv_dest": _points(r.recv_dest),
        },
    })
    return summary


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


def cell_table1(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Table 1 — system-state semantics (§4)."""
    from ..analysis import run_table1

    rows = run_table1(seed=seed)
    return {
        "states": {
            name: {"loaded": rows[name].loaded,
                   "migrate_in": rows[name].migrate_in,
                   "migrate_out": rows[name].migrate_out}
            for name in ("free", "busy", "overloaded")
        },
        "observed": {host: state.name.lower()
                     for host, state in rows["_observed_states"].items()},
        "migrated_to": rows["_migrated_to"],
    }


def cell_overload(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Ablations on an overloaded host: warm-up, monitoring frequency,
    destination strategy, push vs pull, central vs hierarchical."""
    from ..analysis import run_overload

    return run_overload(seed=seed,
                        **_axis_kwargs(CELL_AXES["overload"], config))


def cell_order(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Ablations on direct migration orders: poll-point density and
    pre-initialization."""
    from ..analysis import run_orders

    return run_orders(seed=seed, **_axis_kwargs(CELL_AXES["order"], config))


def cell_lease(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Ablation of the soft-state lease: crash detection vs traffic."""
    from ..analysis import run_lease

    return run_lease(seed=seed, **_axis_kwargs(CELL_AXES["lease"], config))


#: Cell name → runner: one cell per experiment.
CELLS: Dict[str, Callable[[Dict[str, Any], int], Dict[str, Any]]] = {
    "overhead": cell_overhead,
    "efficiency": cell_efficiency,
    "table2": cell_table2,
    "malleability": cell_malleability,
    "table1": cell_table1,
    "overload": cell_overload,
    "order": cell_order,
    "lease": cell_lease,
}

#: The config keys each cell actually reads — the valid ``--set`` axes.
#: ``plan_sweep`` validates overrides against the union for the planned
#: experiments, so a typo'd or mis-plumbed axis fails at plan time
#: instead of silently riding along in every cell's config.
CELL_AXES: Dict[str, frozenset] = {
    "overhead": frozenset({"duration", "interval", "cycle_cost", "settle",
                           "hosts"}),
    "efficiency": frozenset({
        "app_start", "load_at", "duration", "hogs", "sustain", "levels",
        "trees", "node_cost", "serialize_rate", "chunks",
        "resume_fraction",
    }),
    "table2": frozenset({"params", "load_at", "hogs", "sustain",
                         "bulk_rate", "ws3_load", "max_duration"}),
    "malleability": frozenset({
        "params", "hosts", "load_at", "hogs", "sustain", "grow_at",
        "shrink_at", "min_efficiency", "max_duration",
    }),
    "table1": frozenset(),
    "overload": frozenset({
        "hosts", "params", "inject_at", "spike", "domains", "background",
        "interval", "sustain", "strategy", "mode",
    }),
    "order": frozenset({"hosts", "params", "orders", "preinit"}),
    "lease": frozenset({"interval", "lease"}),
}


#: Figure name → the cell whose summary holds it.  The paper reads one
#: overhead run two ways (§5.1) and one migration two ways (§5.2).
FIGURES: Dict[str, str] = {
    "fig5": "overhead",
    "fig6": "overhead",
    "fig7": "efficiency",
    "fig8": "efficiency",
}


def run_cell(
    experiment: str, config: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Run one cell, by its name or a figure's.  Module-level
    (picklable), so it is the function the process pool ships to
    workers."""
    try:
        cell = CELLS[FIGURES.get(experiment, experiment)]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(CELLS)} or {sorted(FIGURES)}"
        ) from None
    return cell(dict(config), seed)
