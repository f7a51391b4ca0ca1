"""Parallel sweep runner with deterministic seeding.

``repro sweep`` fans independent experiment replicas across a process
pool.  Two guarantees make the fan-out safe to use for paper-grade
numbers:

* **determinism** — every cell's seed is derived from the base seed by
  a content hash (:func:`repro.perf.seeds.derive_seed`), so the same
  sweep specification always produces the same per-cell seeds, in any
  execution order, serial or parallel;
* **equivalence** — a cell is a pure function of ``(experiment,
  config, seed)``; running it in a worker process yields the same
  summary as running it inline.

Every cell is simulated on every run; a result worth keeping is kept
in the ``--out`` file.  See ``docs/performance.md`` for usage.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "experiments": ("CELLS", "FIGURES", "run_cell"),
    "seeds": ("derive_seed",),
    "sweep": ("SweepCell", "plan_sweep", "run_sweep", "same_run"),
})
