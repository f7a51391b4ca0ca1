"""EXPERIMENTS.json: every number EXPERIMENTS.md states, pinned.

Each entry is one ``repro.perf.experiments`` cell run —
``{experiment, config, seed, summary}``, the shape of a ``repro sweep
--out`` cell — and tier-1 re-runs every one and compares the summary
with ``==``.  The simulator is deterministic, so a difference is a
behaviour change to explain, not noise.  After a deliberate one,
rewrite every summary from the entries' own ``(experiment, config,
seed)``::

    PYTHONPATH=src python -m tests.pinned

To pin one more number, append ``{"experiment": ..., "config": ...,
"seed": 0, "summary": null}`` and run the same command.
"""

import functools
import json
from pathlib import Path

from repro.perf import SweepCell, run_sweep

PATH = Path(__file__).resolve().parents[1] / "EXPERIMENTS.json"


@functools.lru_cache(maxsize=None)
def entries() -> list:
    """The pinned entries (parsed once; read them, do not mutate)."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def rerun(pinned: list, jobs: int = 2) -> list:
    """Each entry's summary, simulated now by the sweep runner (``jobs``
    cells at a time: parallel ≡ serial) as it reads back from JSON."""
    cells = [SweepCell(e["experiment"], 0, e["seed"], e["config"])
             for e in pinned]
    return [json.loads(json.dumps(summary))
            for summary in run_sweep(cells, jobs=jobs).summaries]


def summary(experiment: str, seed: int = 0, **config) -> dict:
    """The pinned summary of one cell run."""
    for entry in entries():
        if (entry["experiment"], entry["config"], entry["seed"]) == (
                experiment, config, seed):
            return entry["summary"]
    raise KeyError(f"{experiment} {config} seed={seed} is not pinned")


def by_axis(axis: str) -> list:
    """``(config, summary)`` of every pinned run that sets ``axis``, in
    pinned order."""
    return [(e["config"], e["summary"]) for e in entries()
            if axis in e["config"]]


def write(pinned: list) -> None:
    """One entry per line, so a diff names the cells that moved."""
    lines = ",\n".join(json.dumps(entry) for entry in pinned)
    PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    write([{**entry, "summary": fresh}
           for entry, fresh in zip(entries(), rerun(entries()))])
