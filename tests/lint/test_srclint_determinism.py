"""D300 determinism sanitizer: scope rule, codes, exemptions."""

import os

from tests.srclint import lint_paths, lint_sources
from tests.srclint.determinism import in_sim_scope
from tests.srclint.model import parse_sources


def _codes(diags):
    return [d.code for d in diags]


def _fixture(name):
    return os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "srclint", "fixtures", name)


def test_firing_fixture_raises_every_code():
    diags = lint_paths([_fixture("d300_firing")])
    codes = set(_codes(diags))
    assert codes == {"D301", "D302", "D303", "D304", "D305", "D306"}
    # Two wall-clock reads, two entropy sources, two global-state
    # draws, two unstable iterations.
    assert _codes(diags).count("D301") == 2
    assert _codes(diags).count("D302") == 2
    assert _codes(diags).count("D303") == 2
    assert _codes(diags).count("D305") == 2


def test_clean_fixture_is_clean():
    assert lint_paths([_fixture("d300_clean")]) == []


def test_scope_includes_sim_segments_only():
    assert in_sim_scope("src/repro/sim/kernel.py")
    assert in_sim_scope("src/repro/registry/core.py")
    assert in_sim_scope("src/repro/workloads/montecarlo.py")
    assert not in_sim_scope("src/repro/live/node.py")
    assert not in_sim_scope("src/repro/perf/sweep.py")
    assert not in_sim_scope("src/repro/cli.py")
    assert not in_sim_scope("examples/demo.py")


def test_out_of_scope_file_is_ignored():
    # Identical code, but under live/: none of the D codes fire.
    text = "import time\n\ndef f():\n    return time.time()\n"
    assert lint_sources([("src/repro/live/x.py", text)]) == []
    diags = lint_sources([("src/repro/sim/x.py", text)])
    assert _codes(diags) == ["D301"]


def test_rng_plumbing_module_is_exempt_from_generator_codes():
    text = (
        "import numpy as np\n\n"
        "def seeded_generator(seed):\n"
        "    return np.random.default_rng(int(seed))\n"
    )
    assert lint_sources([("src/repro/sim/rng.py", text)]) == []
    # The same construction elsewhere is D304.
    bare = text.replace("seeded_generator", "make_gen")
    diags = lint_sources([("src/repro/sim/other.py", bare)])
    assert _codes(diags) == ["D304"]


def test_import_aliases_are_resolved():
    modules, _ = parse_sources([(
        "src/repro/sim/x.py",
        "import numpy as np\nfrom time import monotonic\n",
    )])
    assert modules[0].aliases["np"] == "numpy"
    assert modules[0].aliases["monotonic"] == "time.monotonic"


def test_from_import_wall_clock_is_caught():
    text = ("from time import monotonic\n\n"
            "def f():\n    return monotonic()\n")
    diags = lint_sources([("src/repro/entity/x.py", text)])
    assert _codes(diags) == ["D301"]
