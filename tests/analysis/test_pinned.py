"""Every number EXPERIMENTS.md states is pinned in EXPERIMENTS.json and
re-simulated here: a cell whose summary moves by one bit fails.

Regenerate after a deliberate behaviour change with
``PYTHONPATH=src python -m tests.pinned`` and explain the diff.
"""

import json
import os

import pytest

from repro.perf.experiments import CELL_AXES

from ..pinned import entries, rerun

#: The cells whose axes are pinned here first; fig5–8, table2 and
#: malleability predate EXPERIMENTS.json.
NEW_CELLS = ("table1", "overload", "order", "lease")


def _label(entry):
    return entry["experiment"] + "".join(
        f",{key}={json.dumps(value, separators=(',', ':'))}"
        for key, value in sorted(entry["config"].items()))


@pytest.fixture(scope="module")
def rerun_all():
    """Every pinned cell simulated once, two at a time."""
    return rerun(entries(), jobs=min(2, os.cpu_count() or 1))


@pytest.mark.parametrize("index", range(len(entries())),
                         ids=[_label(e) for e in entries()])
def test_pinned_summary_is_reproduced(index, rerun_all):
    assert rerun_all[index] == entries()[index]["summary"]


def test_entries_set_only_axes_their_cell_reads():
    """A cell ignores config keys it does not read, so a misspelt axis
    would pin the default run under the wrong name."""
    for entry in entries():
        assert set(entry["config"]) <= CELL_AXES[entry["experiment"]], entry


def test_every_new_axis_takes_two_values():
    """An axis that is set somewhere and takes one value everywhere is
    a constant; an unset key counts as its cell's default."""
    for cell in NEW_CELLS:
        configs = [e["config"] for e in entries() if e["experiment"] == cell]
        assert configs, f"{cell} is pinned nowhere"
        for axis in CELL_AXES[cell]:
            values = {json.dumps(config.get(axis), sort_keys=True)
                      for config in configs}
            assert any(axis in config for config in configs), (cell, axis)
            assert len(values) >= 2, (cell, axis, values)
