"""Backticked code references in the docs name things that exist.

Every inline-code ``Class.attr`` in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md whose ``Class`` is a class defined in
``repro`` must name an attribute of it: a class attribute (methods,
properties, dataclass fields, enum members) or a ``self.attr``
assigned anywhere in the class's ``repro`` MRO.  Fenced code blocks
are skipped; names that are not ``repro`` classes are not checked.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]

_SPAN_RE = re.compile(r"`([^`\n]+)`")
_REF_RE = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def _doc_files():
    return ([REPO / name for name in ("README.md", "DESIGN.md",
                                      "EXPERIMENTS.md")]
            + sorted((REPO / "docs").glob("*.md")))


@functools.lru_cache(maxsize=None)
def _classes():
    """Class name → the ``repro`` classes of that name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.setdefault(name, []).append(obj)
    return found


def _self_assigned(klass):
    """Names assigned as ``self.<name>`` in the class body's source."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
    except (OSError, TypeError):
        return set()
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _has(klass, attr):
    if hasattr(klass, attr):
        return True
    return any(
        attr in getattr(k, "__annotations__", {})
        or attr in _self_assigned(k)
        for k in klass.__mro__ if k.__module__.startswith("repro")
    )


def _references(path):
    """``(line, "Class.attr")`` for each inline-code reference to a
    ``repro`` class."""
    classes = _classes()
    refs = []
    in_fence = False
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in _SPAN_RE.findall(line):
            refs.extend((number, f"{cls}.{attr}")
                        for cls, attr in _REF_RE.findall(span)
                        if cls in classes)
    return refs


def _exists(ref):
    cls, attr = ref.split(".")
    return any(_has(klass, attr) for klass in _classes()[cls])


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO)))
def test_code_references_exist(doc):
    missing = [f"{doc.name}:{line} {ref}"
               for line, ref in _references(doc) if not _exists(ref)]
    assert not missing, f"references to nothing: {missing}"


def test_the_check_sees_references_and_tells_them_apart():
    assert sum(len(_references(doc)) for doc in _doc_files()) > 100
    # A method, a property, a slots dataclass field, a plain dataclass
    # field without a default, a ``self`` attribute, an enum member.
    for ref in ("RegistryCore.handle", "Reconfigure.dest",
                "Reconfigure.source", "MigrateCommand.dest",
                "RegistryCore.reconfigurations", "SystemState.FREE"):
        assert _exists(ref), ref
    assert not _exists("RegistryScheduler._decide_inner")
    assert not _exists("HostPlane.add_analytic")
