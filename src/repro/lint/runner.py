"""The lint driver: file discovery, dispatch, orchestration.

``repro lint <paths...>`` walks the given files/directories, decides
what each configuration file is, and routes it to the matching
analyzer:

* rule files — ``*.rules``, or any text file whose body contains an
  ``rl_number:`` line → :mod:`.rulelint`;
* application schemas — ``*.xml`` with an ``applicationSchema`` root
  → :mod:`.schemalint`;
* policies — ``*.json`` carrying a ``policy`` object (or
  triggers/dest_conditions keys) → :mod:`.policylint`;
* cluster descriptions — ``*.json`` with a ``host_classes`` list,
  collected first so every schema in the same lint run is checked
  against them (S201).

Python sources (``*.py``) route to the source-contract passes in
:mod:`.srclint` (determinism, effects, trace discipline, concurrency,
message flow);
everything else (docs, CSVs, …) is skipped.  Driver-level problems use
the ``Lxxx`` codes: ``L001`` unreadable file, ``L002`` invalid JSON,
``L003`` nothing lintable found, ``L004`` unparsable Python source,
``L005`` suppression naming an unknown code, ``L006`` a
``--select``/``--ignore`` prefix matching no known code.

Overlapping path arguments (``repro lint examples examples/configs``)
and symlinks to already-visited files are deduplicated by real path,
so each file is linted — and each finding reported — exactly once.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.policy import policy_from_dict
from ..schema import ApplicationSchema
from .catalog import KNOWN_CODES
from .diagnostics import (
    Diagnostic,
    Severity,
    filter_codes,
    sort_diagnostics,
)
from .policylint import lint_policy
from .rulelint import lint_rule_text
from .schemalint import HostClass, lint_schema


class LintUsageError(Exception):
    """Bad invocation (missing path, …); the CLI maps this to exit 2."""


_RULE_EXTENSIONS = (".rules", ".rule")
_SKIP_EXTENSIONS = (
    ".pyc", ".md", ".rst", ".txt", ".csv", ".toml", ".cfg",
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
    ``'schema'``, ``'policy'``, ``'cluster'``, ``'pysource'`` — or
    ``None`` (skip)."""
    lower = path.lower()
    if lower.endswith(_RULE_EXTENSIONS):
        return "rules"
    if lower.endswith(".py"):
        return "pysource"
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


def _read(path: str, diags: List[Diagnostic]) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        diags.append(Diagnostic(
            code="L001", severity=Severity.ERROR,
            message=f"cannot read file: {exc}", file=path,
        ))
        return None


def _parse_code_prefixes(
    raw: Optional[Sequence[str]],
) -> Optional[Tuple[str, ...]]:
    if not raw:
        return None
    prefixes = tuple(p.strip().upper() for p in raw if p.strip())
    return prefixes or None


def _unknown_prefix_diags(
    prefixes: Optional[Tuple[str, ...]], option: str
) -> List[Diagnostic]:
    """L006: a filter prefix no registered code starts with is a typo
    that would otherwise produce a silently-green (or silently-full)
    run — ``--select M81`` when the M codes are M801–M804 must fail
    loudly, not report nothing."""
    diags: List[Diagnostic] = []
    for prefix in prefixes or ():
        if any(code.startswith(prefix) for code in KNOWN_CODES):
            continue
        diags.append(Diagnostic(
            code="L006", severity=Severity.ERROR,
            message=(
                f"{option} prefix {prefix!r} matches no known "
                "diagnostic code"
            ),
            obj=prefix,
        ))
    return diags


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Lint every configuration and Python source under ``paths``.

    ``select``/``ignore`` are code prefixes (``("D3", "T505")``):
    with ``select``, only matching codes are reported; ``ignore``
    drops matching codes afterwards.
    """
    if not paths:
        raise LintUsageError("no paths given")
    files = collect_files(paths)

    diags: List[Diagnostic] = []
    work: List[Tuple[str, str, str]] = []  # (kind, path, text)
    pysources: List[Tuple[str, str]] = []  # (path, text)
    host_classes: List[HostClass] = []

    for path in files:
        text = _read(path, diags)
        if text is None:
            continue
        kind = classify_file(path, text)
        if kind is None:
            continue
        if kind == "pysource":
            pysources.append((path, text))
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

    if not work and not pysources and not host_classes and not diags:
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
    if pysources:
        from .srclint import lint_sources

        diags.extend(lint_sources(pysources))
    select_prefixes = _parse_code_prefixes(select)
    ignore_prefixes = _parse_code_prefixes(ignore)
    diags = filter_codes(
        diags, select=select_prefixes, ignore=ignore_prefixes,
    )
    # After the filter, so the typo cannot filter itself out.
    diags.extend(_unknown_prefix_diags(select_prefixes, "--select"))
    diags.extend(_unknown_prefix_diags(ignore_prefixes, "--ignore"))
    return sort_diagnostics(diags)


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
        schema = ApplicationSchema.from_xml(text)
    except ValueError as exc:
        return [Diagnostic(
            code="S200", severity=Severity.ERROR,
            message=f"invalid application schema: {exc}", file=path,
        )]
    return lint_schema(schema, tuple(host_classes), filename=path)


def _lint_policy_file(path: str, text: str) -> List[Diagnostic]:
    try:
        policy = policy_from_dict(json.loads(text))
    except ValueError as exc:
        return [Diagnostic(
            code="P100", severity=Severity.ERROR,
            message=f"cannot load policy: {exc}", file=path,
        )]
    return lint_policy(policy, filename=path)
