"""The sweep runner: plan cells, fan out, collect.

The runner's contract is *parallel ≡ serial*: cells are pure functions
of ``(experiment, config, seed)`` with content-derived seeds, and
results are collected in plan order (not completion order).  Every
cell is simulated on every run.  ``jobs=1`` runs inline; ``jobs>1``
uses a :class:`~concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .experiments import CELL_AXES, CELLS, FIGURES, run_cell
from .seeds import derive_seed


@dataclass(frozen=True)
class SweepCell:
    """One planned unit of work."""

    experiment: str
    replica: int
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.experiment}[{self.replica}] seed={self.seed}"


def same_run(experiment: str, config: Dict[str, Any],
             seed: int) -> Tuple[str, str, int]:
    """What makes two requests one simulated run: the cell the name
    resolves to, the config as canonical JSON, and the seed."""
    return (FIGURES.get(experiment, experiment),
            json.dumps(config, sort_keys=True), seed)


def plan_sweep(
    experiments: Sequence[str],
    replicas: int = 1,
    base_seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
) -> List[SweepCell]:
    """Expand experiment names × replica indices into cells.

    Seeds come from :func:`derive_seed`, so the plan is a pure function
    of its arguments — two users with the same spec get the same cells.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    unknown = sorted(e for e in set(experiments)
                     if FIGURES.get(e, e) not in CELLS)
    if unknown:
        raise ValueError(
            f"unknown experiments {unknown}; choose from {sorted(CELLS)} "
            f"or {sorted(FIGURES)}"
        )
    config = dict(config or {})
    # Overrides must be axes some planned cell actually reads —
    # otherwise a typo (``host=256``) silently changes nothing.
    valid_axes: set = set()
    for experiment in set(experiments):
        valid_axes |= CELL_AXES[FIGURES.get(experiment, experiment)]
    bad_axes = sorted(set(config) - valid_axes)
    if bad_axes:
        raise ValueError(
            f"config keys {bad_axes} are not read by "
            f"{sorted(set(experiments))}; valid axes: "
            f"{sorted(valid_axes)}"
        )
    # A figure plans its cell seeded from the name asked for, so its
    # derived seeds do not depend on which cell holds it; a second
    # request for the same run is dropped.
    cells: Dict[Tuple[str, str, int], SweepCell] = {}
    for experiment in experiments:
        for replica in range(replicas):
            seed = derive_seed(base_seed, experiment, replica)
            cells.setdefault(
                same_run(experiment, config, seed),
                SweepCell(experiment=FIGURES.get(experiment, experiment),
                          replica=replica, seed=seed, config=config))
    return list(cells.values())


def _execute(cell: SweepCell) -> Dict[str, Any]:
    """Worker-side entry point (module-level: picklable)."""
    return run_cell(cell.experiment, cell.config, cell.seed)


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, Any]]:
    """Run every cell; the summaries come back in plan order."""
    say = log or (lambda _msg: None)

    def collect(results) -> List[Dict[str, Any]]:
        summaries = []
        for cell, summary in zip(cells, results):  # plan order
            summaries.append(summary)
            say(f"ran {cell.label()}")
        return summaries

    if jobs <= 1:
        return collect(map(_execute, cells))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return collect(pool.map(_execute, cells))
