"""Source-level contract analysis (``repro lint src/``).

Where the config passes (R/P/S) check what operators *write*, these
passes check what we *implement*: the cross-layer invariants the
runtime only holds together by convention.  Three per-module families:

* **D300** — determinism sanitizer over sim-reachable modules
  (:mod:`.determinism`): the golden-trace gate's static half.
* **E400** — effect exhaustiveness over the core/driver split
  (:mod:`.effects`).
* **T500** — trace discipline against the EVENTS catalogue
  (:mod:`.tracedisc`).

Findings can be silenced per line with ``# repro-lint: skip`` (all
codes) or ``# repro-lint: skip[D301,T505]``; a suppression naming a
code nothing emits is itself a warning (L005).  See
``docs/linting.md`` for the full catalogue.

Two families are *whole-project* passes: they run over a
:class:`~.model.ProjectModel` (resolved import edges) built once per
lint run:

* **C700** — concurrency sanitizer over the live threading model
  (:mod:`.concurrency`).
* **M800** — message-flow analyzer over the send→handler graph
  (:mod:`.msgflow`): the static twin of the decision-parity tests.

The full code vocabulary lives in :mod:`repro.lint.catalog`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..catalog import KNOWN_CODES
from ..diagnostics import Diagnostic
from .concurrency import lint_concurrency
from .determinism import in_sim_scope, lint_determinism
from .effects import lint_effects
from .model import (
    ProjectModel,
    PyModule,
    build_project,
    parse_sources,
    suppression_warnings,
)
from .msgflow import lint_message_flow
from .tracedisc import lint_trace_discipline

_PASSES = (
    lint_determinism,
    lint_effects,
    lint_trace_discipline,
)

#: Passes that consume the whole-project model (import edges).
_PROJECT_PASSES = (
    lint_concurrency,
    lint_message_flow,
)


def lint_sources(files: Sequence[Tuple[str, str]]) -> List[Diagnostic]:
    """Run every source pass over ``(path, text)`` pairs.

    Inline ``# repro-lint: skip[...]`` suppressions are applied to the
    pass findings (never to L004 parse errors), and unknown-code
    suppressions come back as L005 warnings.
    """
    modules, diags = parse_sources(files)
    by_path = {m.path: m for m in modules}
    project = build_project(modules)

    def run(pass_diags):
        for diag in pass_diags:
            module = by_path.get(diag.file or "")
            if module is not None and module.suppressed(
                    diag.code, diag.line):
                continue
            diags.append(diag)

    for pass_fn in _PASSES:
        run(pass_fn(modules))
    for pass_fn in _PROJECT_PASSES:
        run(pass_fn(modules, project))
    diags.extend(suppression_warnings(modules, KNOWN_CODES))
    return diags


__all__ = [
    "KNOWN_CODES",
    "ProjectModel",
    "PyModule",
    "build_project",
    "in_sim_scope",
    "lint_concurrency",
    "lint_determinism",
    "lint_effects",
    "lint_message_flow",
    "lint_sources",
    "lint_trace_discipline",
    "parse_sources",
]
