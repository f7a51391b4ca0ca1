"""The reachability allowlist, checked statically (``tests/unreached.py``).

Running the programs takes minutes (``python -m tests.reachability``,
a CI step); this only holds the list to the source: every entry names
a function defined under ``src/repro`` and gives one line of reason.
"""

from ..reachability import definitions
from ..unreached import ALLOWED


def test_every_allowlisted_name_is_a_function_in_src():
    defined = set(definitions().values())
    assert sorted(set(ALLOWED) - defined) == []


def test_every_entry_gives_a_one_line_reason():
    bad = [name for name, reason in ALLOWED.items()
           if not reason.strip() or "\n" in reason]
    assert bad == []


def test_names_are_module_and_qualname():
    names = set(definitions().values())
    assert "repro.perf.experiments:run_cell" in names
    assert "repro.cli:main" in names
    assert "repro.hpcm.world:HpcmWorld.request_shrink" in names
    assert "repro._lazy:lazy_exports.<locals>.__dir__" in names
