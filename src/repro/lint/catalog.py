"""The diagnostic-code registry: one entry per code ``repro lint`` can
report — the loaders' R, P and S codes, and the driver's own L codes.

``tests/docs/test_inventories.py`` keeps this table and the
``docs/linting.md`` catalogue in sync in both directions, so a code
can be neither reported undocumented nor documented unreported.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: code → (default severity, one-line description).  The severity is
#: the *documented default* (S202 can downgrade to a warning at
#: runtime; its catalogue row says error).
CODE_DETAILS: Dict[str, Tuple[str, str]] = {
    # driver
    "L001": ("error", "named file cannot be read"),
    "L002": ("error", "*.json file is not valid JSON"),
    "L003": ("warning", "nothing lintable found under the given paths"),
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
}
