"""Vectorized rule evaluation: one rule set, every host at once.

The scalar :class:`~repro.rules.evaluator.RuleEvaluator` classifies one
host per call — the right shape for a monitor that owns one machine.
The registry-side decision plane wants the opposite shape: classify
*all* registered hosts in one pass over the host-state matrix.  This
module compiles the same rule sets to numpy column operations:

* a simple rule's threshold ladder becomes :func:`classify_column` —
  two ``np.where`` selects over the script's metric column;
* a complex rule's expression tree compiles through
  :func:`repro.rules.expr.compile_node_vector` — weighted sums are
  scaled adds, ``&``/``|`` are elementwise min/max.

The *column engine* plays the script engine's role:
``engine(script, param) -> np.ndarray`` returns one value per host
(:func:`repro.registry.hostmatrix.matrix_column_engine` adapts a
:class:`~repro.registry.hostmatrix.HostStateMatrix`).  Engines must be
pure within one evaluation — the vector path reads each leaf from one
coherent snapshot, exactly like a monitor cycle's ``refresh()``.

Equivalence with the scalar evaluator — same states for every host,
every rule set, every operator — is the contract;
``tests/rules/test_vector.py`` enforces it differentially and
``docs/decision_plane.md`` documents it.  The vector path emits no
per-rule trace events (they are per-host diagnostics; bulk sweeps
would drown a trace), which is why the scalar path remains the oracle
wherever traces matter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import expr as expr_mod
from .evaluator import ScriptNotFound
from .model import ComplexRule, RuleSet, SimpleRule
from .states import SystemState
from .vocabulary import OPERATORS

#: int8 codes of the named states, for mask building without enum churn.
FREE = int(SystemState.FREE)
BUSY = int(SystemState.BUSY)
OVERLOADED = int(SystemState.OVERLOADED)


def classify_column(
    values: np.ndarray, operator: str, busy: float, overloaded: float
) -> np.ndarray:
    """Column twin of :func:`repro.rules.evaluator.classify`.

    Returns int8 state codes, elementwise.  NaN (unreported) values
    fail every comparison and land in FREE — callers that need missing
    data to be loud should mask beforehand.
    """
    compare = OPERATORS.get(operator)
    if compare is None:
        raise ValueError(f"unsupported operator {operator!r}")
    over, busy_m = compare(values, overloaded), compare(values, busy)
    return np.where(
        over, np.int8(OVERLOADED), np.where(busy_m, np.int8(BUSY),
                                            np.int8(FREE))
    ).astype(np.int8)


class VectorRuleEvaluator:
    """Evaluates a :class:`RuleSet` over columns instead of scalars.

    Mirrors :class:`~repro.rules.evaluator.RuleEvaluator` method for
    method — same expression caching, same undeclared-reference
    validation, same cycle detection, same top-level partition — but
    every evaluation returns an int8 state-code array, one element per
    host.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        column_engine: Callable[[str, str], np.ndarray],
        n_levels: int = 3,
    ):
        self.ruleset = ruleset
        self.column_engine = column_engine
        self.n_levels = n_levels
        self._expr_cache: Dict[int, expr_mod.Node] = {}
        #: rule number → compiled ``fn(resolve) -> level column``.
        self._compiled: Dict[int, Callable] = {}
        self._top_level: Optional[Tuple[int, List]] = None

    # -- single rules ---------------------------------------------------
    def evaluate_rule(
        self, rule: Union[SimpleRule, ComplexRule, int],
        _stack: Optional[frozenset] = None,
    ) -> np.ndarray:
        """Evaluate one rule (by object or number) to a state column."""
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

    def _evaluate_simple(self, rule: SimpleRule) -> np.ndarray:
        try:
            values = np.asarray(
                self.column_engine(rule.script, rule.param),
                dtype=np.float64,
            )
        except KeyError as exc:
            raise ScriptNotFound(rule.script) from exc
        return classify_column(values, rule.operator, rule.busy,
                               rule.overloaded)

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
    ) -> np.ndarray:
        run = self._compiled.get(rule.number)
        if run is None:
            run = expr_mod.compile_node_vector(self._ast(rule))
            self._compiled[rule.number] = run

        def resolve(number: int) -> np.ndarray:
            return self.evaluate_rule(
                number, _stack=stack
            ).astype(np.float64)

        return expr_mod.states_from_levels(
            expr_mod.round_levels(run(resolve), n_levels=self.n_levels),
            n_levels=self.n_levels,
        )

    # -- whole-host-set state --------------------------------------------
    def _top_level_rules(self) -> List:
        """Rules not referenced by any complex rule (cached per size)."""
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

    def evaluate_host_states(
        self, root_rule: Optional[int] = None
    ) -> np.ndarray:
        """Every host's state in one pass: a designated root rule, or
        the elementwise most severe outcome across top-level rules.

        Column twin of ``RuleEvaluator.evaluate_host_state`` — scalar
        max-severity becomes ``np.maximum`` folding.
        """
        if root_rule is not None:
            return self.evaluate_rule(root_rule)
        top = self._top_level_rules()
        if not top:
            raise ValueError(
                "empty rule set has no host width; evaluate at least "
                "one rule"
            )
        states = self.evaluate_rule(top[0])
        for rule in top[1:]:
            states = np.maximum(states, self.evaluate_rule(rule))
        return states
