"""Every lazily re-exporting package keeps the surface it had when its
``__init__`` imported each name eagerly."""

import importlib
import re
import types

import pytest

LAZY = ("repro", "repro.commander", "repro.core", "repro.live",
        "repro.metrics", "repro.monitor", "repro.perf", "repro.protocol",
        "repro.registry", "repro.rules")


@pytest.mark.parametrize("name", LAZY)
def test_package_surface(name):
    package = importlib.import_module(name)
    for attr in package.__all__:
        # A submodule of the same name would shadow the export.
        assert not isinstance(getattr(package, attr), types.ModuleType)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(
        package.__all__)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        package.no_such_name
