"""Rule evaluation against a script engine (paper Figure 2).

The *rule-evaluator* fires each rule's script through a pluggable
script engine (the simulated ``vmstat``/``netstat``/... — or, in live
mode, real ``/proc`` readers), compares the value against the rule's
thresholds, and combines complex rules through the expression AST.

One evaluator, two widths: everything here is written against the
array namespace ``RuleEvaluator.xp`` (:data:`repro.rules.expr.scalar`
— one host, plain Python numbers).  The column width
(:class:`repro.rules.vector.VectorRuleEvaluator`) is the subclass that
sets ``xp = numpy`` and overrides only what differs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

from . import expr as expr_mod
from .model import ComplexRule, RuleSet, SimpleRule
from .states import BUSY, FREE, OVERLOADED, SystemState
from .vocabulary import OPERATORS
from ..findings import refuse_errors
from ..trace import get_tracer
from ..trace.events import EV_RULE_EVALUATE, EV_RULE_FIRE


class ScriptNotFound(KeyError):
    """A rule references a script the engine does not provide."""


class RuleEvaluator:
    """Evaluates a :class:`RuleSet` using a script engine.

    ``script_engine(script_name, param) -> float`` returns the current
    measurement for a rule.

    Building an evaluator refuses a rule set whose references are wrong
    (:meth:`RuleSet.findings`), so an evaluation cannot meet an
    undefined rule or a cycle.  Complex-rule expressions, parsed when
    each rule was built, are **compiled to closures** once per
    evaluator (:func:`repro.rules.expr.compile_node`), and the
    top-level-rule partition of the set is cached, so the per-monitor-
    interval cost is only the leaf script calls — no AST walks, no
    re-parsing, no rule-number re-resolution.

    Internally every rule evaluates to a severity *level* in ``xp``'s
    own arithmetic; only the public methods wrap levels as states.
    """

    #: The array namespace the judgement runs on (one host).
    xp: Any = expr_mod.scalar

    def __init__(
        self,
        ruleset: RuleSet,
        script_engine: Callable[[str, str], Any],
    ):
        self.ruleset = ruleset
        self.script_engine = script_engine
        #: rule number → compiled ``fn(resolve) -> level`` closure.
        self._compiled: Dict[int, Callable] = {}
        #: (ruleset size, top-level rules) as of the last check.
        self._top_level: Tuple[int, List] = (-1, [])
        self._checked_rules()

    def _checked_rules(self) -> List:
        """The top-level rules, after refusing a set whose references
        are wrong (:meth:`RuleSet.findings`: undefined, cyclic, ...).
        Checked when the evaluator is built and again only when the
        set has grown since — :meth:`RuleSet.add` is append-only, so a
        size change is the only way the set can evolve.

        Rules referenced by complex rules are sub-rules; top-level
        rules are the rest.
        """
        version, top = self._top_level
        if version == len(self.ruleset.rules):
            return top
        refuse_errors(self.ruleset.findings())
        referenced: set = set()
        for rule in self.ruleset:
            if isinstance(rule, ComplexRule):
                referenced |= rule.ast.references()
        top = [rule for rule in self.ruleset
               if rule.number not in referenced]
        self._top_level = (len(self.ruleset.rules), top)
        return top

    # -- what a width decides (VectorRuleEvaluator overrides these) -------
    def _measure(self, script: str, param: str) -> float:
        """One rule's measurement, in ``xp``'s arithmetic."""
        return float(self.script_engine(script, param))

    def _as_state(self, level: Any) -> SystemState:
        """A level as the public methods return it."""
        return SystemState(level)

    def _trace_fire(self, rule: SimpleRule, value: Any, level: Any) -> None:
        """The per-rule ``rule.fire`` trace event."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_RULE_FIRE, rule=rule.number, rule_name=rule.name,
                script=rule.script, param=rule.param, value=value,
                operator=rule.operator, busy=rule.busy,
                overloaded=rule.overloaded, state=SystemState(level).name,
            )

    # -- single rules ---------------------------------------------------
    def evaluate_rule(
        self, rule: Union[SimpleRule, ComplexRule, int]
    ) -> Any:
        """Evaluate one rule (by object or number) to a state."""
        self._checked_rules()
        return self._as_state(self._rule_level(rule))

    def _rule_level(self, rule: Union[SimpleRule, ComplexRule, int]) -> Any:
        if isinstance(rule, int):
            rule = self.ruleset.get(rule)
        if isinstance(rule, SimpleRule):
            return self._evaluate_simple(rule)
        return self._evaluate_complex(rule)

    def _evaluate_simple(self, rule: SimpleRule) -> Any:
        try:
            value = self._measure(rule.script, rule.param)
        except KeyError as exc:
            raise ScriptNotFound(rule.script) from exc
        level = threshold_levels(self.xp, value, rule.operator, rule.busy,
                                 rule.overloaded)
        self._trace_fire(rule, value, level)
        return level

    def _evaluate_complex(self, rule: ComplexRule) -> Any:
        run = self._compiled.get(rule.number)
        if run is None:
            run = expr_mod.compile_node(rule.ast, self.xp)
            self._compiled[rule.number] = run
        return expr_mod.round_levels(self.xp, run(self._rule_level))

    # -- whole-host state -------------------------------------------------
    def _host_level(self) -> Tuple[Any, int]:
        """The most severe level across all top-level rules (FREE when
        there is none), and how many rules that took."""
        top = self._checked_rules()
        if not top:
            return FREE, 0
        maximum = self.xp.maximum
        level = self._rule_level(top[0])
        for rule in top[1:]:
            level = maximum(level, self._rule_level(rule))
        return level, len(top)

    def evaluate_host_state(self) -> SystemState:
        """The host's state: the most severe outcome across all
        top-level rules."""
        level, rules = self._host_level()
        state = SystemState(level)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(EV_RULE_EVALUATE, state=state.name, rules=rules)
        return state


def threshold_levels(
    xp: Any, value: Any, operator: str, busy: float, overloaded: float
) -> Any:
    """Threshold semantics of a simple rule (paper §4, Rule 1 prose),
    as state codes at either width.

    With ``<``: value below ``rl_overLd`` → overloaded, below
    ``rl_busy`` → busy, else free (idle-time style).  With ``>`` the
    comparisons invert (socket-count style).  ``<=``/``>=`` included
    for completeness.  NaN (unreported) fails every comparison and
    lands in FREE.
    """
    compare = OPERATORS.get(operator)
    if compare is None:
        raise ValueError(f"unsupported operator {operator!r}")
    return xp.where(
        compare(value, overloaded), OVERLOADED,
        xp.where(compare(value, busy), BUSY, FREE),
    )


def classify(
    value: float, operator: str, busy: float, overloaded: float
) -> SystemState:
    """One measurement through :func:`threshold_levels`, as a state."""
    return SystemState(
        threshold_levels(expr_mod.scalar, value, operator, busy, overloaded)
    )
