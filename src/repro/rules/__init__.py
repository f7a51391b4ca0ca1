"""Rule-based decision mechanism (paper §4).

Simple rules threshold one measurement; complex rules combine other
rules through weighted sums and ``&``/``|``; rule files use the paper's
``rl_*`` format verbatim.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "builtin": (
        "CMP_RULE", "LOAD_AVERAGE", "NTSTAT_IPV4", "PAPER_RULE_FILE",
        "PROC_COUNT", "PROCESSOR_STATUS", "paper_ruleset",
    ),
    "evaluator": ("RuleEvaluator", "ScriptNotFound", "classify"),
    "expr": ("ExprError", "parse_expression"),
    "model": ("ComplexRule", "RuleSet", "SimpleRule"),
    "parser": ("RuleParseError", "parse_rule_file", "parse_rules"),
    "states": ("SystemState", "combine_and", "combine_or"),
    "vector": ("VectorRuleEvaluator", "classify_column"),
})
