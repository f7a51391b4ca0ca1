"""The lint driver: file discovery, dispatch, orchestration.

``repro lint <paths...>`` walks the given files/directories, decides
what each configuration file is, and routes it to the matching
analyzer:

* rule files — ``*.rules``, or any text file whose body contains an
  ``rl_number:`` line → :func:`repro.rules.parser.rule_file_findings`;
* application schemas — ``*.xml`` with an ``applicationSchema`` root
  → :class:`repro.schema.ApplicationSchema`, then :mod:`.schemalint`;
* policies — ``*.json`` carrying a ``policy`` object (or
  triggers/dest_conditions keys) → :func:`repro.core.policy_from_dict`;
* cluster descriptions — ``*.json`` with a ``host_classes`` list,
  collected first so every schema in the same lint run is checked
  against them (S201).

Each configuration file goes through the loader the runtime uses: what
the loader refuses (:class:`~repro.findings.ConfigError`) is reported
finding by finding, and a file that loads reports its warnings.  Lint
adds only S201, which needs the cluster's host classes, and the
"cannot load at all" codes (P100, S200).

Everything else (Python, docs, CSVs, …) is skipped — by its extension
before it is read, or, for a file the directory walk found with no
telling extension, when it is not UTF-8 text.  Driver-level problems
use the ``Lxxx`` codes: ``L001`` unreadable file (a lintable one, or
any file named on the command line), ``L002`` invalid JSON, ``L003``
nothing lintable found.

Overlapping path arguments (``repro lint examples examples/configs``)
and symlinks to already-visited files are deduplicated by real path,
so each file is linted — and each finding reported — exactly once.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.policy import policy_from_dict
from ..findings import try_build
from ..rules.parser import rule_file_findings
from ..schema import ApplicationSchema
from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .schemalint import HostClass, lint_schema


class LintUsageError(Exception):
    """Bad invocation (missing path, …); the CLI maps this to exit 2."""


_RULE_EXTENSIONS = (".rules", ".rule")
#: The extensions that make a file lintable whatever it holds.
_LINT_EXTENSIONS = (*_RULE_EXTENSIONS, ".xml", ".json")
#: Python is skipped outright: modules that mention ``rl_number``
#: (the rule parser among them) are not rule files.
_SKIP_EXTENSIONS = (
    ".py", ".pyc", ".md", ".rst", ".txt", ".csv", ".toml", ".cfg",
    ".ini", ".yml", ".yaml", ".sh", ".lock",
)
#: Directory names never descended into: anything hidden (dotted),
#: plus tool/VCS output that can contain thousands of irrelevant
#: files (a vendored node_modules would otherwise dominate the walk).
_SKIP_DIRS = frozenset({
    "__pycache__", "node_modules", "venv", "env",
    "build", "dist", "htmlcov",
})


def _keep_dir(name: str) -> bool:
    return (not name.startswith(".")
            and name not in _SKIP_DIRS
            and not name.endswith(".egg-info"))


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted candidate-file list.

    Each file is returned once even when the path arguments overlap
    (``lint examples examples/configs``) or a symlink aliases an
    already-visited file; ``os.walk`` never follows directory
    symlinks, so link cycles cannot trap the walker.
    """
    found: List[str] = []
    seen: set = set()

    def _add(candidate: str) -> None:
        real = os.path.realpath(candidate)
        if real not in seen:
            seen.add(real)
            found.append(candidate)

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(
                    path, followlinks=False):
                dirnames[:] = sorted(filter(_keep_dir, dirnames))
                for name in sorted(filenames):
                    if not name.startswith("."):
                        _add(os.path.join(dirpath, name))
        elif os.path.exists(path):
            _add(path)
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return found


def classify_file(path: str, text: str) -> Optional[str]:
    """What kind of lintable file is this?  One of ``'rules'``,
    ``'schema'``, ``'policy'``, ``'cluster'`` — or ``None`` (skip)."""
    lower = path.lower()
    if lower.endswith(_RULE_EXTENSIONS):
        return "rules"
    if lower.endswith(_SKIP_EXTENSIONS):
        return None
    if lower.endswith(".xml"):
        return "schema"
    if lower.endswith(".json"):
        try:
            doc = json.loads(text)
        except ValueError:
            return "json"  # routed to an L002 diagnostic
        if isinstance(doc, dict):
            if "host_classes" in doc:
                return "cluster"
            if "policy" in doc or {"triggers", "dest_conditions",
                                   "source_guards"} & set(doc):
                return "policy"
        return None
    # Extension tells us nothing: sniff for the paper's rl_* format.
    if "rl_number" in text:
        return "rules"
    return None


def _read(path: str, named: bool,
          diags: List[Diagnostic]) -> Optional[str]:
    """The file's text, or ``None`` with an L001 — or, for a walked
    file that is not UTF-8 and has no lintable extension (an image
    beside the configs), ``None`` alone: only a sniff could have made
    it a rule file, and rule files are text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        if (isinstance(exc, UnicodeDecodeError) and not named
                and not path.lower().endswith(_LINT_EXTENSIONS)):
            return None
        diags.append(Diagnostic(
            code="L001", severity=Severity.ERROR,
            message=f"cannot read file: {exc}", file=path,
        ))
        return None


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    """Lint every configuration file under ``paths``."""
    if not paths:
        raise LintUsageError("no paths given")
    files = collect_files(paths)

    diags: List[Diagnostic] = []
    work: List[Tuple[str, str, str]] = []  # (kind, path, text)
    host_classes: List[HostClass] = []

    named = {os.path.realpath(p) for p in paths if not os.path.isdir(p)}
    for path in files:
        if path.lower().endswith(_SKIP_EXTENSIONS):
            continue  # decided by name, never read
        text = _read(path, os.path.realpath(path) in named, diags)
        if text is None:
            continue
        kind = classify_file(path, text)
        if kind is None:
            continue
        if kind == "json":
            diags.append(Diagnostic(
                code="L002", severity=Severity.ERROR,
                message="invalid JSON", file=path,
            ))
            continue
        if kind == "cluster":
            try:
                classes = [
                    HostClass.from_dict(d)
                    for d in json.loads(text)["host_classes"]
                ]
            except (ValueError, TypeError, KeyError) as exc:
                diags.append(Diagnostic(
                    code="L002", severity=Severity.ERROR,
                    message=f"bad cluster description: {exc}", file=path,
                ))
                continue
            host_classes.extend(classes)
            continue
        work.append((kind, path, text))

    if not work and not host_classes and not diags:
        diags.append(Diagnostic(
            code="L003", severity=Severity.WARNING,
            message="no lintable files found",
            file=paths[0],
        ))

    for kind, path, text in work:
        if kind == "rules":
            diags.extend(lint_rule_text(text, filename=path))
        elif kind == "schema":
            diags.extend(_lint_schema_file(path, text, host_classes))
        elif kind == "policy":
            diags.extend(_lint_policy_file(path, text))
    return sort_diagnostics(diags)


def lint_rule_text(
    text: str, filename: Optional[str] = None
) -> List[Diagnostic]:
    """A rule file's findings, as :func:`~repro.rules.parse_rule_file`
    refuses them (R007 is a warning)."""
    _, found = rule_file_findings(text)
    return [replace(d, file=filename) for d in found]


def _lint_schema_file(
    path: str, text: str, host_classes: Iterable[HostClass]
) -> List[Diagnostic]:
    try:
        root_tag = ET.fromstring(text).tag
    except ET.ParseError as exc:
        return [Diagnostic(
            code="S200", severity=Severity.ERROR,
            message=f"invalid XML: {exc}", file=path,
        )]
    if root_tag != "applicationSchema":
        return []  # some other XML; not ours to judge
    try:
        schema, found = try_build(lambda: ApplicationSchema.from_xml(text))
    except ValueError as exc:
        return [Diagnostic(
            code="S200", severity=Severity.ERROR,
            message=f"invalid application schema: {exc}", file=path,
        )]
    if schema is None:
        return [replace(d, file=path) for d in found]
    return lint_schema(schema, tuple(host_classes), filename=path)


def _lint_policy_file(path: str, text: str) -> List[Diagnostic]:
    try:
        policy, found = try_build(
            lambda: policy_from_dict(json.loads(text)))
    except ValueError as exc:
        return [Diagnostic(
            code="P100", severity=Severity.ERROR,
            message=f"cannot load policy: {exc}", file=path,
        )]
    return [replace(d, file=path) for d in found]
