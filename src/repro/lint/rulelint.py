"""Static analysis of rule files (diagnostics ``R001``–``R011``).

Works on the raw ``rl_*`` blocks (so a single broken rule cannot hide
findings in the rest of the file) and on already-built
:class:`~repro.rules.RuleSet` objects (for programmatic use).

Checks:

======  =========  =====================================================
code    severity   finding
======  =========  =====================================================
R001    error      expression references an undefined rule number
R002    error      complex-rule expressions form a reference cycle
R003    error      duplicate ``rl_number``
R004    error      weighted sum's weights do not total 100%
R005    error      dead rule: listed in ``rl_ruleNo`` but never used by
                   the expression (or unreachable from ``root``)
R006    error      threshold contradiction: the ``overloaded`` state can
                   never be reached (bad ordering, or outside the
                   script's value domain)
R007    warning    ``rl_busy`` equals ``rl_overLd``: the ``busy`` state
                   is unreachable
R008    error      expression references a rule missing from
                   ``rl_ruleNo`` (the evaluator rejects this at runtime)
R010    error      malformed block (missing/duplicate/non-numeric keys,
                   unknown ``rl_type``, bad lines)
R011    error      unparsable complex-rule expression
======  =========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rules import expr as expr_mod
from ..rules.expr import ExprError, WeightedSum
from ..rules.model import (
    ComplexRule,
    RuleSet,
    VALID_OPERATORS,
    threshold_error,
)
from ..rules.parser import scan_blocks
from ..rules.vocabulary import (
    METRIC_DOMAINS,
    OPERATORS,
    SCRIPT_PARAMS,
    script_metric,
)
from .diagnostics import Diagnostic, Severity

#: Value domains of the stock monitoring scripts (closed intervals;
#: ``inf`` = unbounded): the domain of the metric each script reads.
#: Unknown scripts get no domain and therefore no domain-based R006
#: findings.
SCRIPT_DOMAINS: Dict[str, Tuple[float, float]] = {
    script: METRIC_DOMAINS[script_metric(script)]
    for script in SCRIPT_PARAMS
}

_REQUIRED_SIMPLE = ("rl_script", "rl_operator", "rl_busy", "rl_overLd")


@dataclass
class _RuleFacts:
    """What the analyzer managed to learn about one block."""

    number: Optional[int] = None
    name: str = "?"
    line: int = 0
    is_complex: bool = False
    ast: Optional[object] = None
    declared: Tuple[int, ...] = ()
    script: str = ""
    operator: str = ""
    busy: Optional[float] = None
    overloaded: Optional[float] = None
    lines: dict = field(default_factory=dict)

    def line_of(self, key: str) -> int:
        return self.lines.get(key, self.line)


def lint_rule_text(
    text: str,
    filename: Optional[str] = None,
    root: Optional[int] = None,
) -> List[Diagnostic]:
    """Lint a rule file's raw text."""
    diags: List[Diagnostic] = []
    scan_errors: List[Tuple[int, str]] = []
    blocks = scan_blocks(text, errors=scan_errors)
    for lineno, message in scan_errors:
        diags.append(Diagnostic(
            code="R010", severity=Severity.ERROR, message=message,
            file=filename, line=lineno,
        ))

    facts = [_block_facts(block, filename, diags) for block in blocks]
    diags.extend(_graph_checks(facts, filename, root))
    return diags


def lint_ruleset(
    ruleset: RuleSet,
    filename: Optional[str] = None,
    root: Optional[int] = None,
) -> List[Diagnostic]:
    """Lint an already-constructed :class:`RuleSet` (graph checks;
    per-field sanity was enforced at construction time)."""
    diags: List[Diagnostic] = []
    facts = []
    for rule in ruleset:
        f = _RuleFacts(number=rule.number, name=rule.name)
        if isinstance(rule, ComplexRule):
            f.is_complex = True
            f.declared = tuple(rule.rule_numbers)
            try:
                f.ast = expr_mod.parse_expression(rule.expression)
            except ExprError as exc:
                diags.append(Diagnostic(
                    code="R011", severity=Severity.ERROR,
                    message=f"unparsable expression: {exc}",
                    file=filename, obj=rule.name,
                ))
        else:
            f.script = rule.script
            f.operator = rule.operator
            f.busy = rule.busy
            f.overloaded = rule.overloaded
            diags.extend(_threshold_checks(f, filename))
        facts.append(f)
    diags.extend(_graph_checks(facts, filename, root))
    return diags


# ------------------------------------------------------------ per-block
def _block_facts(block, filename, diags: List[Diagnostic]) -> _RuleFacts:
    fields = block.fields
    facts = _RuleFacts(line=block.start_line, lines=block.lines)

    def report(code, message, key=None, severity=Severity.ERROR):
        diags.append(Diagnostic(
            code=code, severity=severity, message=message, file=filename,
            line=facts.line_of(key) if key else facts.line,
            obj=facts.name if facts.name != "?" else None,
        ))

    facts.name = fields.get("rl_name", "?")
    raw_number = fields.get("rl_number")
    if raw_number is None:
        report("R010", "missing rl_number")
    else:
        try:
            facts.number = int(raw_number)
        except ValueError:
            report("R010", f"rl_number must be an integer, got "
                           f"{raw_number!r}", key="rl_number")
    if "rl_name" not in fields:
        report("R010", "missing rl_name")

    rtype = fields.get("rl_type", "simple").lower()
    if rtype == "simple":
        for key in _REQUIRED_SIMPLE:
            if key not in fields:
                report("R010", f"missing {key}")
        facts.script = fields.get("rl_script", "")
        facts.operator = fields.get("rl_operator", "")
        for key, attr in (("rl_busy", "busy"), ("rl_overLd", "overloaded")):
            if key in fields:
                try:
                    setattr(facts, attr, float(fields[key]))
                except ValueError:
                    report("R010", f"{key} must be numeric, got "
                                   f"{fields[key]!r}", key=key)
        if "rl_operator" in fields:
            diags.extend(_threshold_checks(facts, filename))
    elif rtype == "complex":
        if "rl_script" not in fields:
            report("R010", "missing rl_script (the expression)")
        else:
            facts.is_complex = True
            try:
                facts.ast = expr_mod.parse_expression(fields["rl_script"])
            except ExprError as exc:
                report("R011", f"unparsable expression: {exc}",
                       key="rl_script")
        tokens = fields.get("rl_ruleNo", "").split()
        declared = []
        for tok in tokens:
            try:
                declared.append(int(tok))
            except ValueError:
                report("R010", f"rl_ruleNo must list rule numbers, got "
                               f"{tok!r}", key="rl_ruleNo")
        facts.declared = tuple(declared)
    else:
        report("R010", f"unknown rl_type {rtype!r}", key="rl_type")
    return facts


def _threshold_checks(facts: _RuleFacts, filename) -> List[Diagnostic]:
    """R006/R007 over one simple rule (shared with the runtime model
    through :func:`repro.rules.model.threshold_error`)."""
    diags: List[Diagnostic] = []
    op, busy, over = facts.operator, facts.busy, facts.overloaded

    def report(code, message, severity=Severity.ERROR):
        diags.append(Diagnostic(
            code=code, severity=severity, message=message, file=filename,
            line=facts.line_of("rl_operator") or None,
            obj=None if facts.name == "?" else facts.name,
        ))

    if busy is None or over is None:
        if op and op not in VALID_OPERATORS:
            report("R006", f"unsupported operator {op!r} "
                           f"(allowed: {VALID_OPERATORS})")
        return diags
    problem = threshold_error(facts.name, op, busy, over)
    if problem is not None:
        report("R006", problem)
        return diags
    domain = SCRIPT_DOMAINS.get(facts.script)
    if domain is not None:
        lo, hi = domain
        # ``value OP over`` has a solution in [lo, hi] iff the domain
        # end on the operator's side satisfies it.
        if not OPERATORS[op](lo if op.startswith("<") else hi, over):
            report(
                "R006",
                f"overloaded state unreachable: {facts.script} yields "
                f"values in [{lo:g}, {hi:g}] but requires "
                f"value {op} {over:g}",
            )
    if busy == over:
        report(
            "R007",
            "busy state unreachable: rl_busy equals rl_overLd "
            "(every busy reading already classifies overloaded)",
            severity=Severity.WARNING,
        )
    return diags


# ----------------------------------------------------------- rule graph
def _graph_checks(
    facts: List[_RuleFacts], filename, root: Optional[int]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []

    seen: Dict[int, _RuleFacts] = {}
    for f in facts:
        if f.number is None:
            continue
        if f.number in seen:
            diags.append(Diagnostic(
                code="R003", severity=Severity.ERROR,
                message=f"duplicate rl_number {f.number} (first defined "
                        f"as {seen[f.number].name!r})",
                file=filename, line=f.line_of("rl_number") or None,
                obj=None if f.name == "?" else f.name,
            ))
        else:
            seen[f.number] = f

    defined = set(seen)
    edges: Dict[int, List[int]] = {}
    for f in facts:
        if f.number is None or f.ast is None:
            continue
        refs = sorted(f.ast.references())
        edges[f.number] = refs
        line = f.line_of("rl_script") or None
        for ref in refs:
            if ref not in defined:
                diags.append(Diagnostic(
                    code="R001", severity=Severity.ERROR,
                    message=f"expression references undefined rule "
                            f"r{ref}",
                    file=filename, line=line, obj=f.name,
                ))
        if f.declared:
            for dead in sorted(set(f.declared) - set(refs)):
                diags.append(Diagnostic(
                    code="R005", severity=Severity.ERROR,
                    message=f"dead rule: r{dead} is listed in rl_ruleNo "
                            f"but never used by the expression",
                    file=filename, line=f.line_of("rl_ruleNo") or None,
                    obj=f.name,
                ))
            for undecl in sorted(set(refs) & defined - set(f.declared)):
                diags.append(Diagnostic(
                    code="R008", severity=Severity.ERROR,
                    message=f"expression references r{undecl} which is "
                            f"missing from rl_ruleNo (the evaluator "
                            f"rejects this)",
                    file=filename, line=f.line_of("rl_ruleNo") or None,
                    obj=f.name,
                ))
        diags.extend(_weight_checks(f, filename))

    diags.extend(_cycle_checks(seen, edges, filename))

    if root is not None:
        reachable = set()
        stack = [root]
        while stack:
            number = stack.pop()
            if number in reachable:
                continue
            reachable.add(number)
            stack.extend(edges.get(number, ()))
        for number in sorted(defined - reachable):
            f = seen[number]
            diags.append(Diagnostic(
                code="R005", severity=Severity.ERROR,
                message=f"dead rule: r{number} is unreachable from the "
                        f"root rule r{root}",
                file=filename, line=f.line_of("rl_number") or None,
                obj=None if f.name == "?" else f.name,
            ))
    return diags


def _weight_checks(f: _RuleFacts, filename) -> List[Diagnostic]:
    """R004: every multi-term weighted sum must total 100%."""
    diags: List[Diagnostic] = []
    stack = [f.ast]
    while stack:
        node = stack.pop()
        if isinstance(node, WeightedSum):
            total = sum(w for w, _ in node.terms)
            if len(node.terms) >= 2 and abs(total - 1.0) > 1e-6:
                diags.append(Diagnostic(
                    code="R004", severity=Severity.ERROR,
                    message=f"weighted sum totals {total * 100:g}%, "
                            f"must total 100%",
                    file=filename, line=f.line_of("rl_script") or None,
                    obj=None if f.name == "?" else f.name,
                ))
            stack.extend(child for _, child in node.terms)
        elif hasattr(node, "left"):
            stack.extend((node.left, node.right))
    return diags


def _cycle_checks(
    seen: Dict[int, _RuleFacts], edges: Dict[int, List[int]], filename
) -> List[Diagnostic]:
    """R002: DFS cycle detection over complex-rule references."""
    diags: List[Diagnostic] = []
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in seen}
    reported = set()

    def visit(number: int, path: List[int]) -> None:
        color[number] = GREY
        path.append(number)
        for ref in edges.get(number, ()):
            if ref not in color:
                continue  # undefined refs are R001's business
            if color[ref] == GREY:
                cycle = tuple(path[path.index(ref):] + [ref])
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    pretty = " -> ".join(f"r{n}" for n in cycle)
                    f = seen[ref]
                    diags.append(Diagnostic(
                        code="R002", severity=Severity.ERROR,
                        message=f"reference cycle: {pretty}",
                        file=filename,
                        line=f.line_of("rl_script") or None,
                        obj=None if f.name == "?" else f.name,
                    ))
            elif color[ref] == WHITE:
                visit(ref, path)
        path.pop()
        color[number] = BLACK

    for number in sorted(seen):
        if color[number] == WHITE:
            visit(number, [])
    return diags
