"""Rule evaluation against a script engine (paper Figure 2).

The *rule-evaluator* fires each rule's script through a pluggable
script engine (the simulated ``vmstat``/``netstat``/... — or, in live
mode, real ``/proc`` readers), compares the value against the rule's
thresholds, and combines complex rules through the expression AST.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from . import expr as expr_mod
from .model import ComplexRule, RuleSet, SimpleRule
from .states import SystemState
from .vocabulary import OPERATORS
from ..trace import get_tracer
from ..trace.events import EV_RULE_EVALUATE, EV_RULE_FIRE


class ScriptNotFound(KeyError):
    """A rule references a script the engine does not provide."""


class RuleEvaluator:
    """Evaluates a :class:`RuleSet` using a script engine.

    ``script_engine(script_name, param) -> float`` returns the current
    measurement for a rule.

    Complex-rule expressions are parsed **and compiled to closures**
    once per evaluator (:func:`repro.rules.expr.compile_node`), and the
    top-level-rule partition of the set is cached, so the per-monitor-
    interval cost is only the leaf script calls — no AST walks, no
    re-parsing, no rule-number re-resolution.  The caches key on the
    rule-set size; :meth:`RuleSet.add` is append-only, so a size change
    is the only way the set can evolve.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        script_engine: Callable[[str, str], float],
        n_levels: int = 3,
    ):
        self.ruleset = ruleset
        self.script_engine = script_engine
        self.n_levels = n_levels
        self._expr_cache: Dict[int, expr_mod.Node] = {}
        #: rule number → compiled ``fn(resolve) -> level`` closure.
        self._compiled: Dict[int, Callable] = {}
        #: Cached (ruleset size, top-level rules) partition.
        self._top_level: Optional[Tuple[int, List]] = None

    # -- single rules ---------------------------------------------------
    def evaluate_rule(
        self, rule: Union[SimpleRule, ComplexRule, int],
        _stack: Optional[frozenset] = None,
    ) -> SystemState:
        """Evaluate one rule (by object or number) to a state."""
        if isinstance(rule, int):
            rule = self.ruleset.get(rule)
        stack = _stack or frozenset()
        if rule.number in stack:
            raise ValueError(
                f"rule {rule.number} participates in a reference cycle"
            )
        if isinstance(rule, SimpleRule):
            return self._evaluate_simple(rule)
        return self._evaluate_complex(rule, stack | {rule.number})

    def _evaluate_simple(self, rule: SimpleRule) -> SystemState:
        try:
            value = float(self.script_engine(rule.script, rule.param))
        except KeyError as exc:
            raise ScriptNotFound(rule.script) from exc
        state = classify(value, rule.operator, rule.busy, rule.overloaded)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_RULE_FIRE, rule=rule.number, rule_name=rule.name,
                script=rule.script, param=rule.param, value=value,
                operator=rule.operator, busy=rule.busy,
                overloaded=rule.overloaded, state=state.name,
            )
        return state

    def _ast(self, rule: ComplexRule) -> expr_mod.Node:
        """Parse (once) and validate a complex rule's expression."""
        ast = self._expr_cache.get(rule.number)
        if ast is None:
            ast = expr_mod.parse_expression(rule.expression)
            undeclared = ast.references() - set(rule.rule_numbers)
            if rule.rule_numbers and undeclared:
                raise ValueError(
                    f"rule {rule.name!r} references {sorted(undeclared)} "
                    f"not listed in rl_ruleNo"
                )
            self._expr_cache[rule.number] = ast
        return ast

    def _evaluate_complex(
        self, rule: ComplexRule, stack: frozenset
    ) -> SystemState:
        run = self._compiled.get(rule.number)
        if run is None:
            run = expr_mod.compile_node(self._ast(rule))
            self._compiled[rule.number] = run

        def resolve(number: int) -> SystemState:
            return self.evaluate_rule(number, _stack=stack)

        rounded = int(run(resolve) + 0.5)
        top = self.n_levels - 1
        if rounded < 0:
            rounded = 0
        elif rounded > top:
            rounded = top
        return SystemState.from_level(rounded, n_levels=self.n_levels)

    # -- whole-host state -------------------------------------------------
    def _top_level_rules(self) -> List:
        """Rules not referenced by any complex rule, cached per set size.

        Rules referenced by complex rules are sub-rules; top-level
        rules are the rest.
        """
        cached = self._top_level
        version = len(self.ruleset.rules)
        if cached is not None and cached[0] == version:
            return cached[1]
        referenced: set = set()
        for rule in self.ruleset:
            if isinstance(rule, ComplexRule):
                referenced |= self._ast(rule).references()
        top = [rule for rule in self.ruleset
               if rule.number not in referenced]
        self._top_level = (version, top)
        return top

    def evaluate_host_state(
        self, root_rule: Optional[int] = None
    ) -> SystemState:
        """The host's state: a designated root rule, or the most severe
        outcome across all top-level rules."""
        tracer = get_tracer()
        if root_rule is not None:
            state = self.evaluate_rule(root_rule)
            if tracer.enabled:
                tracer.event(EV_RULE_EVALUATE, state=state.name,
                             root=root_rule, rules=1)
            return state
        top = self._top_level_rules()
        states = [self.evaluate_rule(rule) for rule in top]
        state = (SystemState(max(int(s) for s in states))
                 if states else SystemState.FREE)
        if tracer.enabled:
            tracer.event(EV_RULE_EVALUATE, state=state.name,
                         root=None, rules=len(states))
        return state


def classify(
    value: float, operator: str, busy: float, overloaded: float
) -> SystemState:
    """Threshold semantics of a simple rule (paper §4, Rule 1 prose).

    With ``<``: value below ``rl_overLd`` → overloaded, below
    ``rl_busy`` → busy, else free (idle-time style).  With ``>`` the
    comparisons invert (socket-count style).  ``<=``/``>=`` included
    for completeness.
    """
    compare = OPERATORS.get(operator)
    if compare is None:
        raise ValueError(f"unsupported operator {operator!r}")
    if compare(value, overloaded):
        return SystemState.OVERLOADED
    if compare(value, busy):
        return SystemState.BUSY
    return SystemState.FREE
