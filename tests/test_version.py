"""One version: ``pyproject.toml`` takes it from ``repro.__version__``.

Setuptools reads the attribute statically, so it has to stay a literal
assignment in ``repro/__init__.py``.  The tables are read line by line
because ``tomllib`` is missing on Python 3.10.
"""

import ast
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]


def _tables(text):
    """``{table: {key: raw value}}`` of a flat TOML file."""
    tables, current = {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = tables.setdefault(line.strip("[]"), {})
        elif "=" in line and current is not None and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            current[key] = value
    return tables


def test_the_package_version_is_the_only_version():
    tables = _tables((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in tables["project"]
    assert '"version"' in tables["project"]["dynamic"]
    assert tables["tool.setuptools.dynamic"]["version"] == (
        '{ attr = "repro.__version__" }')
    init = ast.parse((REPO / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"))
    (literal,) = [ast.literal_eval(node.value) for node in init.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["__version__"]]
    assert literal == repro.__version__
