"""The sweep runner: plan cells, fan out, collect, cache.

The runner's contract is *parallel ≡ serial*: cells are pure functions
of ``(experiment, config, seed)`` with content-derived seeds, results
are collected in plan order (not completion order), and the cache is
read and written only by the coordinating process.  ``jobs=1`` runs
inline; ``jobs>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cache import ResultCache, cache_key
from .experiments import CELL_AXES, CELLS, FIGURES, run_cell
from .seeds import derive_seed


@dataclass(frozen=True)
class SweepCell:
    """One planned unit of work."""

    experiment: str
    replica: int
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return cache_key(self.experiment, self.config, self.seed)

    def label(self) -> str:
        return f"{self.experiment}[{self.replica}] seed={self.seed}"


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in plan order."""

    cells: List[SweepCell]
    summaries: List[Dict[str, Any]]
    #: Which cells were served from cache (parallel to ``cells``).
    cached: List[bool]

    @property
    def executed(self) -> int:
        return sum(1 for hit in self.cached if not hit)

    @property
    def cache_hits(self) -> int:
        return sum(1 for hit in self.cached if hit)

    def as_payload(self) -> Dict[str, Any]:
        """JSON document for ``repro sweep --out``."""
        return {
            "cells": [
                {
                    "experiment": cell.experiment,
                    "replica": cell.replica,
                    "seed": cell.seed,
                    "config": cell.config,
                    "key": cell.key,
                    "cached": hit,
                    "summary": summary,
                }
                for cell, hit, summary in zip(
                    self.cells, self.cached, self.summaries
                )
            ],
        }


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
    # otherwise a typo (``host=256``) silently pollutes every cache
    # key while changing nothing.
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
    # request for the same (cell, config, seed) is dropped.
    cells: Dict[str, SweepCell] = {}
    for experiment in experiments:
        for replica in range(replicas):
            cell = SweepCell(
                experiment=FIGURES.get(experiment, experiment),
                replica=replica,
                seed=derive_seed(base_seed, experiment, replica),
                config=config)
            cells.setdefault(cell.key, cell)
    return list(cells.values())


def _execute(cell: SweepCell) -> Dict[str, Any]:
    """Worker-side entry point (module-level: picklable)."""
    return run_cell(cell.experiment, cell.config, cell.seed)


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    log: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Run (or fetch) every cell; results come back in plan order."""
    say = log or (lambda _msg: None)
    summaries: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    cached = [False] * len(cells)

    pending: List[int] = []
    for i, cell in enumerate(cells):
        entry = cache.get(cell.key) if cache is not None else None
        if entry is not None:
            summaries[i] = entry["summary"]
            cached[i] = True
            say(f"cached   {cell.label()}")
        else:
            pending.append(i)

    if pending and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {i: pool.submit(_execute, cells[i])
                       for i in pending}
            for i in pending:  # plan order, not completion order
                summaries[i] = futures[i].result()
                say(f"ran      {cells[i].label()}")
    else:
        for i in pending:
            summaries[i] = _execute(cells[i])
            say(f"ran      {cells[i].label()}")

    if cache is not None:
        for i in pending:
            cell = cells[i]
            cache.put(cell.key, {
                "experiment": cell.experiment,
                "config": cell.config,
                "seed": cell.seed,
                "summary": summaries[i],
            })

    return SweepOutcome(cells=list(cells), summaries=summaries,
                       cached=cached)
