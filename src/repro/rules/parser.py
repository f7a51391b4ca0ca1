"""Parser for the paper's rule-file format (Figures 3–4).

A rule file is a sequence of ``rl_key: value`` lines; a new
``rl_number`` line starts a new rule.  Example (Figure 3)::

    rl_number: 1
    rl_name: processorStatus
    rl_type: simple
    rl_script: processorStatus.sh
    rl_desc: This rule determines the processor status i.e. the idle time.
    rl_operator: <
    rl_param:
    rl_busy: 50
    rl_overLd: 45

Complex rules (Figure 4) carry ``rl_ruleNo`` (firing order) and an
expression in ``rl_script``::

    rl_number: 5
    rl_name: cmp_rule
    rl_type: complex
    rl_desc: A Complex Rule.
    rl_ruleNo: 4 1 3 2
    rl_script: ( 40% * r 4 + 30% * r1 + 30% * r3 ) & r2
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

from ..findings import ConfigError, Diagnostic, error, refuse_errors, try_build
from .model import ComplexRule, RuleSet, SimpleRule

#: What a refused rule file raises (a ``ValueError``).
RuleParseError = ConfigError

Rule = Union[SimpleRule, ComplexRule]


@dataclass
class RuleBlock:
    """One raw ``rl_*`` block plus where its lines live in the file."""

    fields: dict = field(default_factory=dict)
    #: Line number of the block's ``rl_number`` line (or first line).
    start_line: int = 0
    #: key → line number, for per-field findings.
    lines: dict = field(default_factory=dict)

    def line_of(self, key: Optional[str]) -> int:
        return self.lines.get(key, self.start_line)


def scan_blocks(text: str, findings: List[Diagnostic]) -> List[RuleBlock]:
    """Split a rule file into raw :class:`RuleBlock`\\ s.

    Line-level problems (missing ``:``, non-``rl_`` keys, duplicate
    keys within one block) are appended to ``findings`` as R010 and
    the line is skipped.
    """
    blocks: List[RuleBlock] = []
    current: Optional[RuleBlock] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            findings.append(error("R010", "expected 'key: value'",
                                  line=lineno))
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not key.startswith("rl_"):
            findings.append(error(
                "R010", f"unknown key {key!r} (must start with rl_)",
                line=lineno,
            ))
            continue
        if key == "rl_number":
            if current is not None:
                blocks.append(current)
            current = RuleBlock(start_line=lineno)
        if current is None:
            current = RuleBlock(start_line=lineno)
        if key in current.fields:
            findings.append(error(
                "R010", f"duplicate key {key!r} within one rule",
                line=lineno,
            ))
            continue
        current.fields[key] = value
        current.lines[key] = lineno
    if current is not None:
        blocks.append(current)
    return blocks


def parse_rule_file(text: str) -> RuleSet:
    """Parse a whole rule file into a :class:`RuleSet`; refuse it
    (:class:`~repro.findings.ConfigError`) when
    :func:`rule_file_findings` holds an error."""
    ruleset, findings = rule_file_findings(text)
    refuse_errors(findings)
    return ruleset


def parse_rules(text: str) -> List[Rule]:
    """Parse the raw ``rl_*`` blocks into rule objects, each checked
    on its own (no references between them)."""
    built, findings = _read(text)
    refuse_errors(findings)
    return [rule for _, rule in built]


def rule_file_findings(text: str) -> Tuple[RuleSet, List[Diagnostic]]:
    """Every finding about a rule file, each at its line, and the rules
    that loaded: every block's own problems, duplicate numbers (R003)
    and the references between rules (:meth:`RuleSet.findings`)."""
    built, findings = _read(text)
    ruleset = RuleSet()
    block_of = {}
    for block, rule in built:
        try:
            ruleset.add(rule)
        except ConfigError as exc:
            findings += _at(block, "rl_number", exc.findings)
        else:
            block_of[rule.number] = block
    findings += ruleset.findings(
        line=lambda number, key: block_of[number].line_of(key))
    return ruleset, findings


def _read(text: str) -> Tuple[List[Tuple[RuleBlock, Rule]],
                              List[Diagnostic]]:
    findings: List[Diagnostic] = []
    built = []
    for block in scan_blocks(text, findings):
        rule = _build(block, findings)
        if rule is not None:
            built.append((block, rule))
    return built, findings


def _at(block: RuleBlock, key: str, found) -> List[Diagnostic]:
    return [replace(d, line=block.line_of(key)) for d in found]


def _build(block: RuleBlock, findings: List[Diagnostic]) -> Optional[Rule]:
    """One block's rule, or ``None`` after appending why not (R010,
    or what the rule refuses itself: R006, R011)."""
    fields = block.fields
    name = fields.get("rl_name")
    problems: List[Diagnostic] = []

    def problem(message: str, key: Optional[str] = None) -> None:
        problems.append(error("R010", message, line=block.line_of(key),
                              obj=name))

    def require(key: str, convert=str, what: str = ""):
        if key not in fields:
            problem(f"missing {key}")
            return None
        try:
            return convert(fields[key])
        except ValueError:
            problem(f"{key} must be {what}, got {fields[key]!r}", key)
            return None

    number = require("rl_number", int, "an integer")
    require("rl_name")
    rtype = fields.get("rl_type", "simple").lower()
    if rtype == "simple":
        kw = dict(
            script=require("rl_script"),
            operator=require("rl_operator"),
            busy=require("rl_busy", float, "numeric"),
            overloaded=require("rl_overLd", float, "numeric"),
            description=fields.get("rl_desc", ""),
            param=fields.get("rl_param", ""),
        )
        build, key = SimpleRule, "rl_operator"
    elif rtype == "complex":
        numbers = []
        for token in fields.get("rl_ruleNo", "").split():
            try:
                numbers.append(int(token))
            except ValueError:
                problem(f"rl_ruleNo must list rule numbers, got "
                        f"{token!r}", "rl_ruleNo")
        kw = dict(
            expression=require("rl_script"),
            rule_numbers=tuple(numbers),
            description=fields.get("rl_desc", ""),
        )
        build, key = ComplexRule, "rl_script"
    else:
        problem(f"unknown rl_type {rtype!r}", "rl_type")
    findings += problems
    if problems:
        return None
    rule, found = try_build(lambda: build(number=number, name=name, **kw))
    findings += _at(block, key, found)
    return rule
