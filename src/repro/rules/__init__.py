"""Rule-based decision mechanism (paper §4).

Simple rules threshold one measurement; complex rules combine other
rules through weighted sums and ``&``/``|``; rule files use the paper's
``rl_*`` format verbatim.
"""

from .builtin import (
    CMP_RULE,
    LOAD_AVERAGE,
    NTSTAT_IPV4,
    PAPER_RULE_FILE,
    PROC_COUNT,
    PROCESSOR_STATUS,
    paper_ruleset,
)
from .evaluator import RuleEvaluator, ScriptNotFound, classify
from .expr import ExprError, parse_expression
from .vector import VectorRuleEvaluator, classify_column
from .model import ComplexRule, RuleSet, SimpleRule
from .parser import (
    RuleParseError,
    parse_rule_file,
    parse_rules,
)
from .states import SystemState, combine_and, combine_or

__all__ = [
    "CMP_RULE",
    "ComplexRule",
    "ExprError",
    "LOAD_AVERAGE",
    "NTSTAT_IPV4",
    "PAPER_RULE_FILE",
    "PROC_COUNT",
    "PROCESSOR_STATUS",
    "RuleEvaluator",
    "RuleParseError",
    "RuleSet",
    "ScriptNotFound",
    "SimpleRule",
    "SystemState",
    "VectorRuleEvaluator",
    "classify",
    "classify_column",
    "combine_and",
    "combine_or",
    "paper_ruleset",
    "parse_expression",
    "parse_rule_file",
    "parse_rules",
]
