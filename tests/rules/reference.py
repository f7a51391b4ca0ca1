"""Reference interpreter of complex-rule expressions: the tree walk.

The model ``repro.rules.expr.compile_node`` replaces — every
evaluation walks the AST with ``isinstance`` dispatch, resolves each
reference to a :class:`SystemState`, and rounds through the enum at
every ``&``/``|``.  It lived in ``expr.py`` beside the compilers until
they became one; ``test_expr.py`` states the grammar's semantics
against it and holds ``compile_node`` equal to it at both widths on
random ASTs.

This module shares no evaluation code with ``repro.rules.expr``: it
reads only the AST node types.  When the two disagree, this side is
the specification.
"""

from typing import Callable

from repro.rules.expr import Combine, Node, RuleRef, WeightedSum
from repro.rules.states import SystemState, combine_and, combine_or


def evaluate(
    node: Node,
    resolve: Callable[[int], SystemState],
) -> SystemState:
    """Evaluate an AST given a resolver from rule number → state."""
    return _round_state(_level(node, resolve))


def _level(node: Node, resolve: Callable[[int], SystemState]) -> float:
    if isinstance(node, RuleRef):
        return float(int(resolve(node.number)))
    if isinstance(node, WeightedSum):
        return sum(w * _level(child, resolve) for w, child in node.terms)
    if isinstance(node, Combine):
        left = _round_state(_level(node.left, resolve))
        right = _round_state(_level(node.right, resolve))
        if node.op == "&":
            return float(int(combine_and(left, right)))
        return float(int(combine_or(left, right)))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _round_state(level: float) -> SystemState:
    return SystemState(max(0, min(int(level + 0.5), 2)))
