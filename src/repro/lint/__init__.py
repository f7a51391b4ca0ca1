"""``repro lint`` — static analysis for rules, policies and schemas.

Reports, file by file, what the runtime's loaders refuse — typo'd
``rN`` references, cyclic complex rules, contradictory thresholds,
ping-pong policies, unsatisfiable destination conditions — and their
warnings, plus the one check no loader can make: schemas no configured
host can host (S201).  See ``docs/linting.md`` for the full diagnostic
catalogue.
"""

from .diagnostics import (
    Diagnostic,
    JSON_REPORT_VERSION,
    Severity,
    exit_code,
    render_json,
    render_text,
    sort_diagnostics,
    summarize,
)
from .catalog import CODE_DETAILS
from .runner import (
    LintUsageError,
    classify_file,
    collect_files,
    lint_paths,
    lint_rule_text,
)
from .schemalint import HostClass, lint_schema

__all__ = [
    "CODE_DETAILS",
    "Diagnostic",
    "HostClass",
    "JSON_REPORT_VERSION",
    "LintUsageError",
    "Severity",
    "classify_file",
    "collect_files",
    "exit_code",
    "lint_paths",
    "lint_rule_text",
    "lint_schema",
    "render_json",
    "render_text",
    "sort_diagnostics",
    "summarize",
]
