"""README.md's fenced Python blocks run as written.

The reference checks in this package skip fenced code, so an API the
README's examples call could go away unnoticed.  Each ```python block
runs here on its own, in a scratch directory (the tracing block writes
a file).
"""

import re
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_BLOCKS = _BLOCK_RE.findall((REPO / "README.md").read_text())


def test_the_readme_has_python_blocks():
    assert len(_BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_a_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_BLOCKS[index], f"README.md block {index}", "exec"), {})
