"""Rule objects (paper §4, Figures 3–4).

A *simple rule* names a script that yields one number, a comparison
operator, and the thresholds for the ``busy`` and ``overloaded``
states.  A *complex rule* combines other rules through an expression
(weighted sums plus ``&``/``|``).  A *policy* is a group of rules.

Each record checks itself when it is built and refuses (raises
:class:`~repro.findings.ConfigError`) what the runtime cannot
evaluate: a simple rule its thresholds (R006), a complex rule its
expression (R011), a rule set a duplicate number (R003) and, in
:meth:`RuleSet.findings`, the references between its rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..findings import ConfigError, Diagnostic, error, refuse_errors, warning
from .expr import ExprError, WeightedSum, parse_expression
from .vocabulary import OPERATORS, SCRIPT_DOMAINS


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
        refuse_errors(self.findings())

    def findings(self) -> List[Diagnostic]:
        """R006 — the state ladder free → busy → overloaded cannot be
        climbed: an unknown operator, thresholds ordered against the
        operator, or an overloaded cutoff outside the script's value
        domain; R007 (warning) — an empty busy band."""
        name, op = self.name, self.operator
        busy, over = self.busy, self.overloaded
        if op not in OPERATORS:
            problem = (f"rule {name!r}: unsupported operator {op!r} "
                       f"(allowed: {tuple(OPERATORS)})")
        elif op.startswith("<") and over > busy:
            problem = f"rule {name!r}: with '<', rl_overLd must be <= rl_busy"
        elif op.startswith(">") and over < busy:
            problem = f"rule {name!r}: with '>', rl_overLd must be >= rl_busy"
        else:
            problem = None
        if problem is not None:
            return [error("R006", problem, obj=name)]
        found = []
        domain = SCRIPT_DOMAINS.get(self.script)
        if domain is not None:
            lo, hi = domain
            # ``value OP over`` has a solution in [lo, hi] iff the domain
            # end on the operator's side satisfies it.
            if not OPERATORS[op](lo if op.startswith("<") else hi, over):
                found.append(error(
                    "R006",
                    f"overloaded state unreachable: {self.script} yields "
                    f"values in [{lo:g}, {hi:g}] but requires "
                    f"value {op} {over:g}", obj=name,
                ))
        if busy == over:
            found.append(warning(
                "R007",
                "busy state unreachable: rl_busy equals rl_overLd "
                "(every busy reading already classifies overloaded)",
                obj=name,
            ))
        return found


@dataclass(frozen=True)
class ComplexRule:
    """Combination of other rules via an expression.

    ``expression`` uses ``rN`` references, percentage-weighted sums and
    the ``&``/``|`` combinators, e.g.
    ``( 40% * r4 + 30% * r1 + 30% * r3 ) & r2`` (Figure 4).
    ``rule_numbers`` lists the referenced rules in firing order
    (``rl_ruleNo``).  The expression is parsed once, when the rule is
    built, into :attr:`ast` (an unparsable one is R011).
    """

    number: int
    name: str
    expression: str
    rule_numbers: tuple = ()
    description: str = ""

    def __post_init__(self):
        try:
            ast = parse_expression(self.expression)
        except ExprError as exc:
            raise ConfigError([error(
                "R011", f"unparsable expression: {exc}", obj=self.name,
            )]) from None
        object.__setattr__(self, "ast", ast)

    def findings(self) -> List[Diagnostic]:
        return []


def _no_line(number: int, key: str) -> Optional[int]:
    return None


@dataclass
class RuleSet:
    """All rules of one host's monitor, indexed by number."""

    rules: dict = field(default_factory=dict)

    def add(self, rule) -> None:
        first = self.rules.get(rule.number)
        if first is not None:
            raise ConfigError([error(
                "R003", f"duplicate rl_number {rule.number} (first "
                        f"defined as {first.name!r})", obj=rule.name,
            )])
        self.rules[rule.number] = rule

    def get(self, number: int):
        try:
            return self.rules[number]
        except KeyError:
            raise KeyError(f"no rule number {number}") from None

    def __iter__(self):
        return iter(sorted(self.rules.values(), key=lambda r: r.number))

    def findings(
        self, line: Callable[[int, str], Optional[int]] = _no_line
    ) -> List[Diagnostic]:
        """What the complex rules' references get wrong: R001 an
        undefined rule, R002 a cycle, R004 a weighted sum off 100%,
        R005 an ``rl_ruleNo`` entry the expression never uses, R008 a
        reference ``rl_ruleNo`` leaves out.  ``line(number, key)``
        places a finding in its rule file."""
        found: List[Diagnostic] = []
        edges: Dict[int, List[int]] = {}
        for rule in self:
            if not isinstance(rule, ComplexRule):
                continue
            refs = sorted(rule.ast.references())
            edges[rule.number] = refs
            script = line(rule.number, "rl_script")
            order = line(rule.number, "rl_ruleNo")
            for ref in refs:
                if ref not in self.rules:
                    found.append(error(
                        "R001", f"expression references undefined rule "
                                f"r{ref}", line=script, obj=rule.name,
                    ))
            declared = set(rule.rule_numbers)
            if declared:
                for dead in sorted(declared - set(refs)):
                    found.append(error(
                        "R005", f"dead rule: r{dead} is listed in "
                                f"rl_ruleNo but never used by the "
                                f"expression", line=order, obj=rule.name,
                    ))
                for missing in sorted(set(refs) & set(self.rules)
                                      - declared):
                    found.append(error(
                        "R008", f"expression references r{missing} which "
                                f"is missing from rl_ruleNo", line=order,
                        obj=rule.name,
                    ))
            stack = [rule.ast]
            while stack:
                node = stack.pop()
                if isinstance(node, WeightedSum):
                    total = sum(w for w, _ in node.terms)
                    if len(node.terms) >= 2 and abs(total - 1.0) > 1e-6:
                        found.append(error(
                            "R004", f"weighted sum totals {total * 100:g}%, "
                                    f"must total 100%",
                            line=script, obj=rule.name,
                        ))
                    stack.extend(child for _, child in node.terms)
                elif hasattr(node, "left"):
                    stack.extend((node.left, node.right))
        found.extend(self._cycles(edges, line))
        return found

    def _cycles(self, edges, line) -> List[Diagnostic]:
        """R002: one finding per reference cycle, by depth-first search."""
        found: List[Diagnostic] = []
        done: set = set()
        reported: set = set()

        def visit(number: int, path: List[int]) -> None:
            path.append(number)
            for ref in edges.get(number, ()):
                if ref in path:
                    cycle = path[path.index(ref):] + [ref]
                    if frozenset(cycle) not in reported:
                        reported.add(frozenset(cycle))
                        found.append(error(
                            "R002", "reference cycle: " + " -> ".join(
                                f"r{n}" for n in cycle),
                            line=line(ref, "rl_script"),
                            obj=self.rules[ref].name,
                        ))
                elif ref in self.rules and ref not in done:
                    visit(ref, path)
            path.pop()
            done.add(number)

        for number in sorted(self.rules):
            if number not in done:
                visit(number, [])
        return found
