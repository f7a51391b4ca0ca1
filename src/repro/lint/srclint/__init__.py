"""Source-level contract analysis (``repro lint src/``).

Where the config passes (R/P/S) check what operators *write*, these
passes check what we *implement*: the invariants the runtime holds
only by convention and no test run can witness.  Two per-module
families:

* **D300** — determinism sanitizer over sim-reachable modules
  (:mod:`.determinism`): the golden-trace gate's static half, for the
  sim code no seeded run reaches.
* **C700** — concurrency sanitizer over the live threading model
  (:mod:`.concurrency`): the locking discipline no test can provoke.

Findings can be silenced per line with ``# repro-lint: skip`` (all
codes) or ``# repro-lint: skip[D301,C702]``; a suppression naming a
code nothing emits is itself a warning (L005).  See
``docs/linting.md`` for the full catalogue, and for the mutation
table that weighed every other family against tier-1.

The full code vocabulary lives in :mod:`repro.lint.catalog`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..catalog import KNOWN_CODES
from ..diagnostics import Diagnostic
from .concurrency import lint_concurrency
from .determinism import in_sim_scope, lint_determinism
from .model import PyModule, parse_sources, suppression_warnings

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


__all__ = [
    "KNOWN_CODES",
    "PyModule",
    "in_sim_scope",
    "lint_concurrency",
    "lint_determinism",
    "lint_sources",
    "parse_sources",
]
