"""The bit-identical gate: every cell in ``tests/digests.json`` is
re-simulated here, and its summary digest and its kernel-dispatch
digest must equal the pinned ones.  A change meant to move no
simulated number passes this untouched.

Regenerate after a deliberate behaviour change with
``PYTHONPATH=src python -m tests.digests`` and explain the diff.
"""

import json
import os

import pytest

from ..digests import cells, entries, rerun


def _label(entry):
    return f"{entry['experiment']}{entry['config'] or ''}-{entry['seed']}"


@pytest.fixture(scope="module")
def rerun_all():
    """Every pinned cell simulated once, two at a time."""
    return rerun(entries(), jobs=min(2, os.cpu_count() or 1))


@pytest.mark.parametrize("index", range(len(entries())),
                         ids=[_label(e) for e in entries()])
def test_pinned_digests_are_reproduced(index, rerun_all):
    entry = entries()[index]
    assert rerun_all[index] == {"run_cell": entry["run_cell"],
                                "dispatch": entry["dispatch"]}


def test_the_file_pins_every_cell_of_the_gate():
    """Every cell the gate names and ``EXPERIMENTS.json`` does not
    already pin, in order, once."""
    pinned = [(e["experiment"], json.dumps(e["config"], sort_keys=True),
               e["seed"]) for e in entries()]
    assert pinned == [(experiment, json.dumps(config, sort_keys=True), seed)
                      for experiment, config, seed in cells()]
