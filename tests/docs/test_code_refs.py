"""Backticked code references in the docs name things that exist.

Every inline-code ``Class.attr`` in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md whose ``Class`` is a class defined in
``repro`` must name an attribute of it: a class attribute (methods,
properties, dataclass fields, enum members) or a ``self.attr``
assigned anywhere in the class's ``repro`` MRO.  Every inline-code
repository path (``src/…``, ``tests/…``, ``docs/…``, ``examples/…``,
``ledger/…``; globs and ``<placeholder>`` paths aside) must exist as
a file or a directory, and every ``repro.``-dotted name must resolve:
a module, then attributes of it.  Fenced code blocks are skipped;
names that are not ``repro`` classes are not checked.
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
_PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|tests|docs|examples|ledger)/[\w./-]*)([*<{]?)")
_DOTTED_RE = re.compile(r"(?<![\w./])(repro(?:\.\w+)+)")


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


def _spans(text):
    """``(line, span)`` for each inline-code span outside fences."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            for span in _SPAN_RE.findall(line):
                yield number, span


def _references(path):
    """``(line, "Class.attr")`` for each inline-code reference to a
    ``repro`` class."""
    classes = _classes()
    return [(number, f"{cls}.{attr}")
            for number, span in _spans(path.read_text(encoding="utf-8"))
            for cls, attr in _REF_RE.findall(span) if cls in classes]


def _paths(text):
    """``(line, path)`` for each inline-code repository path; a glob
    or a ``<placeholder>`` path names no one file and is left out."""
    return [(number, path.rstrip("."))
            for number, span in _spans(text)
            for path, wildcard in _PATH_RE.findall(span) if not wildcard]


def _dotted(text):
    """``(line, name)`` for each inline-code ``repro.``-dotted name."""
    return [(number, name)
            for number, span in _spans(text)
            for name in _DOTTED_RE.findall(span)]


def _resolves(name):
    """A module, then attributes of what it holds (a class's as
    :func:`_has` reads them)."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if inspect.isclass(obj) and not hasattr(obj, attr):
                return _has(obj, attr)
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


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


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO)))
def test_repository_paths_exist(doc):
    missing = [f"{doc.name}:{line} {path}"
               for line, path in _paths(doc.read_text(encoding="utf-8"))
               if not (REPO / path).exists()]
    assert not missing, f"paths to nothing: {missing}"


@pytest.mark.parametrize(
    "doc", _doc_files(), ids=lambda p: str(p.relative_to(REPO)))
def test_dotted_names_resolve(doc):
    missing = [f"{doc.name}:{line} {name}"
               for line, name in _dotted(doc.read_text(encoding="utf-8"))
               if not _resolves(name)]
    assert not missing, f"names of nothing: {missing}"


def test_the_check_sees_paths_and_dotted_names_and_tells_them_apart():
    texts = [doc.read_text(encoding="utf-8") for doc in _doc_files()]
    assert sum(len(_paths(text)) for text in texts) > 100
    assert sum(len(_dotted(text)) for text in texts) > 100
    text = "\n".join([
        "`src/repro/cli.py:40`, `tests/docs`, `ledger/run.py --quick`;",
        "`docs/*.md` and `ledger/results/trace-<workload>.json` are left",
        "out; `src/repro/hpcm/checkpoint.py` is deleted.",
        "```", "`tests/gone.py` in a fence is not read", "```",
    ])
    assert _paths(text) == [
        (1, "src/repro/cli.py"), (1, "tests/docs"), (1, "ledger/run.py"),
        (3, "src/repro/hpcm/checkpoint.py"),
    ]
    assert [path for _, path in _paths(text)
            if not (REPO / path).exists()] == ["src/repro/hpcm/checkpoint.py"]
    assert _dotted("`repro.perf.experiments.run_cell(...)` and "
                   "`python -m repro.cli`") == [
        (1, "repro.perf.experiments.run_cell"), (1, "repro.cli")]
    for name in ("repro.trace", "repro.perf.experiments.run_cell",
                 "repro.registry.core.MAX_DATA_LOCALITY",
                 "repro.core.Rescheduler", "repro.metrics.format_table",
                 "repro.registry.core.RegistryCore.reconfigurations"):
        assert _resolves(name), name
    for name in ("repro.hpcm.checkpoint", "repro.schema.SchemaStore",
                 "repro.trace.attach_kernel",
                 "repro.core.Rescheduler.schema_store"):
        assert not _resolves(name), name
