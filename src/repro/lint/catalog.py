"""The diagnostic-code registry: one entry per code any pass can emit.

Everything that needs the full code vocabulary reads it from here —
``KNOWN_CODES`` (suppression validation, L005), the ``--select`` /
``--ignore`` prefix check (L006) and the SARIF reporter's per-rule
``shortDescription``/``helpUri`` metadata.
``tests/docs/test_inventories.py`` keeps this table and the
``docs/linting.md`` catalogue in sync in both directions.

One table, so a code cannot be emitted and documented yet unknown to
suppression validation (a hand-kept set once missed P107–P109 and
S204–S206, and suppressing them tripped a bogus L005).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Family prefix → anchor in ``docs/linting.md`` (explicit ``<a id>``
#: anchors in the doc, so the links survive heading rewording).
FAMILY_ANCHORS: Dict[str, str] = {
    "R": "r-codes",
    "P": "p-codes",
    "S": "s-codes",
    "D": "d-codes",
    "C": "c-codes",
    "L": "l-codes",
}

#: code → (default severity, one-line description).  The severity is
#: the *documented default* (S202 can downgrade to a warning at
#: runtime; its catalogue row says error).
CODE_DETAILS: Dict[str, Tuple[str, str]] = {
    # driver
    "L001": ("error", "named file cannot be read"),
    "L002": ("error", "*.json file is not valid JSON"),
    "L003": ("warning", "nothing lintable found under the given paths"),
    "L004": ("error", "*.py file does not parse"),
    "L005": ("warning", "inline suppression names a code no pass emits"),
    "L006": ("error",
             "--select/--ignore prefix matches no known diagnostic code"),
    # rule files
    "R001": ("error", "expression references an undefined rule number"),
    "R002": ("error", "complex-rule references form a cycle"),
    "R003": ("error", "duplicate rl_number shadows an earlier rule"),
    "R004": ("error", "weighted-sum weights do not total 100%"),
    "R005": ("error", "dead rule: listed in rl_ruleNo but never used"),
    "R006": ("error", "threshold contradiction: overloaded unreachable"),
    "R007": ("warning", "rl_busy equals rl_overLd: empty busy band"),
    "R008": ("error", "expression references a rule missing from rl_ruleNo"),
    "R010": ("error", "malformed rule block"),
    "R011": ("error", "unparsable complex-rule expression"),
    # policies
    "P100": ("error", "policy file cannot be loaded"),
    "P101": ("error", "migration ping-pong between source and destination"),
    "P102": ("error", "unsatisfiable destination conditions"),
    "P103": ("error", "unknown destination-selection strategy"),
    "P104": ("error", "unsatisfiable source guards"),
    "P106": ("warning", "trigger can never fire within its metric domain"),
    "P107": ("error", "inverted world bounds: min_world > max_world"),
    "P108": ("error", "grow and shrink triggers overlap ambiguously"),
    "P109": ("error", "malleability knobs out of range"),
    # schemas
    "S200": ("error", "schema file is not readable/valid XML"),
    "S201": ("error", "resource requirements no host class meets"),
    "S202": ("error", "zero or undeclared poll-points"),
    "S203": ("warning", "migratable app declares no transfer data"),
    "S204": ("warning", "efficiency curve is not non-increasing"),
    "S205": ("error", "efficiency-curve values outside (0, 1]"),
    "S206": ("error", "inverted world bounds: minWorld > maxWorld"),
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
}

#: Every code any ``repro lint`` pass can emit — config passes, the
#: driver, and the source passes.  Suppressions (L005) and the
#: ``--select``/``--ignore`` prefixes (L006) are validated against it.
KNOWN_CODES: FrozenSet[str] = frozenset(CODE_DETAILS)


def short_description(code: str) -> str:
    """One-line summary for ``code`` (empty for unregistered codes)."""
    detail = CODE_DETAILS.get(code)
    return detail[1] if detail else ""


def default_severity(code: str) -> str:
    """Documented default severity name (``'error'`` when unknown)."""
    detail = CODE_DETAILS.get(code)
    return detail[0] if detail else "error"


def help_uri(code: str) -> str:
    """Repo-relative catalogue link for ``code``'s family table."""
    anchor = FAMILY_ANCHORS.get(code[:1], "diagnostic-catalogue")
    return f"docs/linting.md#{anchor}"
