"""Sweep cells: experiment runners returning JSON-safe summaries.

Each cell is a **pure function of ``(config, seed)``** — no ambient
state, no wall-clock, no filesystem — so the sweep runner may execute
it in any worker process and still produce exactly the result of a
serial run.  Summaries hold scalars plus the ``points()`` form of the
figure series, so plots can be rebuilt from a saved summary with
:meth:`repro.metrics.TimeSeries.from_points` without re-simulating.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict


def _axis_kwargs(axes: frozenset, config: Dict[str, Any]) -> Dict[str, Any]:
    """A runner's keyword arguments: whichever of the cell's axes
    (:data:`CELL_AXES` — the one place they are listed) the config
    sets; the runner's own defaults cover the rest."""
    return {key: value for key, value in config.items() if key in axes}


#: Cell name → its runner in :mod:`repro.analysis`: one cell per
#: experiment, and the runner's return value is the cell's summary.
CELLS: Dict[str, str] = {
    # Rescheduler overhead, read as load and CPU (Figure 5) and as
    # communication (Figure 6) — §5.1.
    "overhead": "run_overhead_experiment",
    # One migration, read as phases and CPU (Figure 7) and as the
    # state-transfer burst on the network (Figure 8) — §5.2.
    "efficiency": "run_efficiency_experiment",
    # Table 2 — policy comparison (§5.3).
    "table2": "run_table2",
    # Malleability — rigid vs N:M reshape (docs/malleability.md).
    "malleability": "run_malleability_experiment",
    # Table 1 — system-state semantics (§4).
    "table1": "run_table1",
    # Ablations on an overloaded host: warm-up, monitoring frequency,
    # destination strategy, push vs pull, central vs hierarchical.
    "overload": "run_overload",
    # Ablations on direct migration orders: poll-point density and
    # pre-initialization.
    "order": "run_orders",
    # Ablation of the soft-state lease: crash detection vs traffic.
    "lease": "run_lease",
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
    workers.  The runner is looked up when the cell runs, so importing
    this module loads no simulator."""
    cell = FIGURES.get(experiment, experiment)
    if cell not in CELLS:
        raise ValueError(
            f"unknown experiment {experiment!r}; "
            f"choose from {sorted(CELLS)} or {sorted(FIGURES)}"
        )
    runner = getattr(import_module("repro.analysis"), CELLS[cell])
    return runner(seed=seed, **_axis_kwargs(CELL_AXES[cell], config))
