"""Parallel sweep runner with deterministic seeding and result caching.

``repro sweep`` fans independent experiment replicas across a process
pool.  Three guarantees make the fan-out safe to use for paper-grade
numbers:

* **determinism** — every cell's seed is derived from the base seed by
  a content hash (:func:`repro.perf.seeds.derive_seed`), so the same
  sweep specification always produces the same per-cell seeds, in any
  execution order, serial or parallel;
* **equivalence** — a cell is a pure function of ``(experiment,
  config, seed)``; running it in a worker process yields the same
  summary as running it inline;
* **caching** — finished cells are stored in a content-addressed JSON
  cache (:class:`repro.perf.cache.ResultCache`) keyed on the same
  triple, so a warm re-run skips completed cells entirely.

See ``docs/performance.md`` for usage and cache semantics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("ResultCache", "cache_key"),
    "experiments": ("CELLS", "FIGURES", "run_cell"),
    "seeds": ("derive_seed",),
    "sweep": ("SweepCell", "SweepOutcome", "plan_sweep", "run_sweep"),
})
