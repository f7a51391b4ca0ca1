"""Every simulation example runs to its promised closing line.

Each runs as a user would, ``python examples/<name>.py`` in a fresh
interpreter and an empty working directory.  ``migration_trace`` has
its own test (``tests/trace/test_example.py``); ``live_localhost``
opens sockets and takes seconds, so it is left to the live smoke run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

#: Example → what its closing line ends with.
PROMISES = {
    "custom_rules": "host state         -> free",
    "fault_tolerance": "result correct: True",
    "hierarchical_grid": "result correct: True",
    "mpi_stencil": "solutions identical: True (mean=38.707145)",
    "policy_comparison": "all three runs produced identical application "
                         "results",
    "quickstart": "-> OK",
}


@pytest.mark.parametrize("name", sorted(PROMISES))
def test_example_keeps_its_promise(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(PROMISES[name])
    assert list(tmp_path.iterdir()) == []  # no example leaves files
