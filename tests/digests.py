"""digests.json: the bit-identical gate over whole simulated runs.

Each entry is one ``repro.perf.experiments`` cell —
``{experiment, config, seed}`` — with two sha256 digests of its run:

* ``run_cell`` — of the cell's summary, ``json.dumps(run_cell(...),
  sort_keys=True)``: every number the cell reports;
* ``dispatch`` — of ``(now, event type)`` of every kernel dispatch of
  every environment the cell builds: the order the simulation ran in,
  which a summary can hide.

The cells are ``table2``, ``fig5`` at 2 hosts (1200/300 s) and at 4096
hosts (120/40 s), ``malleability``, ``fig6`` and ``fig7``, each at seeds
0, 5 and 7919, less the runs ``EXPERIMENTS.json`` already pins whole.
They keep the figure names the ledger's workloads use: ``run_cell``
resolves each through :data:`repro.perf.experiments.FIGURES`, so
``fig5`` and ``fig6`` run the ``overhead`` cell and ``fig7`` the
``efficiency`` cell, and the gate also pins that resolution.
Tier-1 re-runs every one and compares with ``==``; a change that is
meant to leave every simulated number alone must leave this file
byte-identical.  After a deliberate behaviour change, rewrite the
file from :data:`CELLS` × :data:`SEEDS` and explain the diff::

    PYTHONPATH=src python -m tests.digests
"""

import functools
import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.perf.experiments import run_cell
from repro.perf.sweep import same_run
from repro.sim import Environment

PATH = Path(__file__).resolve().parent / "digests.json"

SEEDS = (0, 5, 7919)
CELLS = (
    ("table2", {}),
    ("fig5", {"duration": 1200.0, "settle": 300.0}),
    ("fig5", {"hosts": 4096, "duration": 120.0, "settle": 40.0}),
    ("malleability", {}),
    ("fig6", {}),
    ("fig7", {}),
)


class DispatchDigest:
    """A kernel ``trace_hook``: sha256 over ``(now, event type)`` of
    every dispatch it sees, and with ``owner`` also the name of the
    object whose bound method the event calls first (what tells apart
    same-instant wake-ups of different CPUs)."""

    def __init__(self, owner: bool = False):
        self._sha = hashlib.sha256()
        self._owner = owner

    def __call__(self, now, event):
        line = f"{now!r}|{type(event).__name__}"
        if self._owner:
            first = event.callbacks[0] if event.callbacks else None
            line += "|" + getattr(getattr(first, "__self__", None),
                                  "name", "")
        self._sha.update(f"{line}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    @contextmanager
    def on_every_environment(self):
        """Hook every :class:`Environment` built inside the block."""
        init = Environment.__init__

        def hooked(env, *args, **kwargs):
            init(env, *args, **kwargs)
            env.trace_hook = self

        Environment.__init__ = hooked
        try:
            yield self
        finally:
            Environment.__init__ = init


def digests(experiment: str, config: dict, seed: int) -> dict:
    """Both digests of one cell run (module-level: picklable)."""
    dispatch = DispatchDigest()
    with dispatch.on_every_environment():
        summary = run_cell(experiment, config, seed)
    text = json.dumps(summary, sort_keys=True)
    return {"run_cell": hashlib.sha256(text.encode()).hexdigest(),
            "dispatch": dispatch.hexdigest()}


@functools.lru_cache(maxsize=None)
def entries() -> list:
    """The pinned entries (parsed once; read them, do not mutate)."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def rerun(pinned: list, jobs: int = 2) -> list:
    """Each entry's digests, simulated now ``jobs`` cells at a time and
    returned in entry order — the fan-out of
    :func:`repro.perf.run_sweep`, whose workers return a summary only,
    with this module's :func:`digests` as the worker (in fresh
    interpreters: the caller may be running threads)."""
    args = [(e["experiment"], e["config"], e["seed"]) for e in pinned]
    if jobs <= 1:
        return [digests(*a) for a in args]
    with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(digests, *zip(*args)))


def cells() -> list:
    """Every ``(experiment, config, seed)`` of the gate that
    ``EXPERIMENTS.json`` does not already pin."""
    from .pinned import entries as experiments

    pinned = {same_run(e["experiment"], e["config"], e["seed"])
              for e in experiments()}
    return [(experiment, config, seed)
            for experiment, config in CELLS for seed in SEEDS
            if same_run(experiment, config, seed) not in pinned]


def write(pinned: list) -> None:
    """One entry per line, so a diff names the cells that moved."""
    lines = ",\n".join(json.dumps(entry) for entry in pinned)
    PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    fresh = [{"experiment": experiment, "config": config, "seed": seed}
             for experiment, config, seed in cells()]
    write([{**entry, **found}
           for entry, found in zip(fresh, rerun(fresh))])
