"""The source self-lint: D300 and C700 over this repository's Python.

::

    PYTHONPATH=src python -m tests.srclint src/ examples/ --strict
    PYTHONPATH=src python -m tests.srclint src/ examples/ --format sarif

Where ``repro lint`` checks what operators write (rule files, policies,
application schemas), these passes check how the runtime is written:
the invariants it holds only by convention and no test run can
witness.  Two per-module families:

* **D300** — determinism sanitizer over sim-reachable modules
  (:mod:`.determinism`): the golden-trace gate's static half, for the
  sim code no seeded run reaches.
* **C700** — concurrency sanitizer over the live threading model
  (:mod:`.concurrency`): the locking discipline no test can provoke.

Every ``*.py`` file under the given paths is parsed (a file that does
not parse is L004) and nothing is imported or executed.  Findings can
be silenced per line with ``# repro-lint: skip`` (all codes) or
``# repro-lint: skip[D301,C702]``; a suppression naming a code nothing
emits is itself a warning (L005).  ``docs/srclint.md`` documents every
code in :data:`CODE_DETAILS`, and the mutation table that weighed
every family against tier-1.

Exit status: 0 clean (warnings allowed unless ``--strict``),
1 findings, 2 a path that does not exist.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.findings import Diagnostic, Severity
from repro.lint.diagnostics import exit_code, render_text, sort_diagnostics
from repro.lint.runner import LintUsageError, collect_files

from .concurrency import lint_concurrency
from .determinism import lint_determinism
from .model import parse_sources, suppression_warnings

#: code → (default severity, one-line description): every code the
#: passes emit.  Suppressions (L005) are validated against it and the
#: SARIF report carries it as per-rule metadata;
#: ``tests/docs/test_inventories.py`` holds it to the tables of
#: ``docs/srclint.md`` in both directions.
CODE_DETAILS: Dict[str, Tuple[str, str]] = {
    # determinism
    "D301": ("error", "wall-clock read in sim scope"),
    "D302": ("error", "OS entropy in sim scope"),
    "D303": ("error", "draw from process-global RNG state"),
    "D304": ("warning", "ad-hoc RNG construction outside sim/rng.py"),
    "D305": ("warning", "order-sensitive iteration over a set expression"),
    "D306": ("warning", "time.sleep inside virtual time"),
    # concurrency
    "C701": ("error", "shared attribute raced across thread contexts"),
    "C702": ("error", "blocking call while a lock is held"),
    "C705": ("warning", "mutable module global mutated under threads"),
    # the driver
    "L004": ("error", "*.py file does not parse"),
    "L005": ("warning", "inline suppression names a code no pass emits"),
}

KNOWN_CODES = frozenset(CODE_DETAILS)

_PASSES = (
    lint_determinism,
    lint_concurrency,
)


def lint_sources(files: Sequence[Tuple[str, str]]) -> List[Diagnostic]:
    """Run every source pass over ``(path, text)`` pairs.

    Inline ``# repro-lint: skip[...]`` suppressions are applied to the
    pass findings (never to L004 parse errors), and unknown-code
    suppressions come back as L005 warnings.
    """
    modules, diags = parse_sources(files)
    by_path = {m.path: m for m in modules}
    for pass_fn in _PASSES:
        for diag in pass_fn(modules):
            module = by_path.get(diag.file or "")
            if module is not None and module.suppressed(
                    diag.code, diag.line):
                continue
            diags.append(diag)
    diags.extend(suppression_warnings(modules, KNOWN_CODES))
    return diags


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    """Every ``*.py`` file under ``paths`` through the passes, each
    file once (``repro lint``'s file walk)."""
    sources = []
    for path in collect_files(paths):
        if path.lower().endswith(".py"):
            with open(path, encoding="utf-8") as fh:
                sources.append((path, fh.read()))
    return sort_diagnostics(lint_sources(sources))


#: SARIF severity levels by diagnostic severity (SARIF 2.1.0 §3.27.10).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

#: Code family → its table in ``docs/srclint.md`` (explicit
#: ``<a id>`` anchors, so the links survive heading rewording).
_ANCHORS = {"D": "d-codes", "C": "c-codes", "L": "l-codes"}


def render_sarif(diags: Sequence[Diagnostic]) -> str:
    """A SARIF 2.1.0 document GitHub code scanning (and any SARIF
    viewer) can ingest.  One run, one rule per code in
    :data:`CODE_DETAILS` (description, default level and docs link,
    findings or not), one result per finding."""
    diags = sort_diagnostics(diags)
    rules = []
    for code in sorted(KNOWN_CODES | {d.code for d in diags}):
        if code in KNOWN_CODES:
            severity, description = CODE_DETAILS[code]
            rules.append({
                "id": code,
                "shortDescription": {"text": description},
                "helpUri": f"docs/srclint.md#{_ANCHORS[code[0]]}",
                "defaultConfiguration": {
                    "level": _SARIF_LEVELS[Severity(severity)]},
            })
        else:
            # A finding whose code is missing from the table: still a
            # valid rule entry.
            level = _SARIF_LEVELS[max(
                (d.severity for d in diags if d.code == code),
                key=lambda s: s.rank,
            )]
            rules.append({
                "id": code,
                "defaultConfiguration": {"level": level},
            })
    results = []
    for d in diags:
        result = {
            "ruleId": d.code,
            "level": _SARIF_LEVELS[d.severity],
            "message": {"text": d.message},
        }
        if d.file:
            location = {
                "physicalLocation": {
                    "artifactLocation": {"uri": d.file.replace("\\", "/")},
                },
            }
            if d.line:
                location["physicalLocation"]["region"] = {
                    "startLine": d.line}
            result["locations"] = [location]
        results.append(result)
    return json.dumps(
        {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "repro-srclint",
                        "rules": rules,
                    },
                },
                "results": results,
            }],
        },
        indent=2,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.srclint",
        description="D300/C700 self-lint of this repository's Python",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="report format (default text)")
    args = parser.parse_args(argv)
    try:
        diags = lint_paths(args.paths)
    except LintUsageError as exc:
        print(f"srclint: {exc}", file=sys.stderr)
        return 2
    render = render_sarif if args.format == "sarif" else render_text
    print(render(diags))
    return exit_code(diags, strict=args.strict)
