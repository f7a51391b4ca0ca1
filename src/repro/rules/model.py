"""Rule objects (paper §4, Figures 3–4).

A *simple rule* names a script that yields one number, a comparison
operator, and the thresholds for the ``busy`` and ``overloaded``
states.  A *complex rule* combines other rules through an expression
(weighted sums plus ``&``/``|``).  A *policy* is a group of rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .vocabulary import OPERATORS

VALID_OPERATORS = tuple(OPERATORS)


def threshold_error(
    name: str, operator: str, busy: float, overloaded: float
) -> Optional[str]:
    """The single threshold-sanity checker shared by the runtime model
    and ``repro lint`` (diagnostic R006).

    Returns a human-readable problem description, or ``None`` when the
    operator/busy/overLd combination is sound: the operator must be
    known, and for ``<``-style rules the overloaded cutoff must not
    exceed the busy cutoff (vice versa for ``>``), otherwise the state
    ladder free → busy → overloaded cannot be climbed in order.
    """
    if operator not in VALID_OPERATORS:
        return (
            f"rule {name!r}: unsupported operator {operator!r} "
            f"(allowed: {VALID_OPERATORS})"
        )
    if operator.startswith("<") and overloaded > busy:
        return f"rule {name!r}: with '<', rl_overLd must be <= rl_busy"
    if operator.startswith(">") and overloaded < busy:
        return f"rule {name!r}: with '>', rl_overLd must be >= rl_busy"
    return None


@dataclass(frozen=True)
class SimpleRule:
    """One measurable quantity with busy/overloaded thresholds.

    Field names mirror the paper's ``rl_*`` keys.
    """

    number: int
    name: str
    script: str
    operator: str
    busy: float
    overloaded: float
    description: str = ""
    param: str = ""

    def __post_init__(self):
        problem = threshold_error(
            self.name, self.operator, self.busy, self.overloaded
        )
        if problem is not None:
            raise ValueError(problem)

    @property
    def rule_type(self) -> str:
        return "simple"


@dataclass(frozen=True)
class ComplexRule:
    """Combination of other rules via an expression.

    ``expression`` uses ``rN`` references, percentage-weighted sums and
    the ``&``/``|`` combinators, e.g.
    ``( 40% * r4 + 30% * r1 + 30% * r3 ) & r2`` (Figure 4).
    ``rule_numbers`` lists the referenced rules in firing order
    (``rl_ruleNo``).
    """

    number: int
    name: str
    expression: str
    rule_numbers: tuple = ()
    description: str = ""

    def __post_init__(self):
        if not self.expression.strip():
            raise ValueError(f"rule {self.name!r}: empty expression")

    @property
    def rule_type(self) -> str:
        return "complex"


@dataclass
class RuleSet:
    """All rules of one host's monitor, indexed by number."""

    rules: dict = field(default_factory=dict)

    def add(self, rule) -> None:
        if rule.number in self.rules:
            raise ValueError(f"duplicate rule number {rule.number}")
        self.rules[rule.number] = rule

    def get(self, number: int):
        try:
            return self.rules[number]
        except KeyError:
            raise KeyError(f"no rule number {number}") from None

    def by_name(self, name: str):
        for rule in self.rules.values():
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(sorted(self.rules.values(), key=lambda r: r.number))
