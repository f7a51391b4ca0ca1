"""Expression grammar for complex rules.

Grammar (whitespace-insensitive; ``r 4`` and ``r4`` both reference
rule 4, as the paper's Figure 4 mixes the two)::

    expression := operand (('&' | '|') operand)*      left-associative
    operand    := '(' sum ')' | ref
    sum        := product ('+' product)*
    product    := [NUMBER '%' '*'] operand
    ref        := 'r' NUMBER

Evaluation maps every node to a *severity level* (free=0, busy=1,
overloaded=2):

* a weighted sum computes ``Σ wᵢ·levelᵢ`` and rounds to the nearest
  level;
* ``&`` takes the **least** severe side (both must agree to escalate —
  §4's worked example);
* ``|`` takes the **most** severe side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, List, Tuple, Union

from .states import BUSY, FREE, OVERLOADED


class ExprError(ValueError):
    """Malformed complex-rule expression."""


# ------------------------------------------------------------------ AST
@dataclass(frozen=True)
class RuleRef:
    number: int

    def references(self) -> set:
        return {self.number}


@dataclass(frozen=True)
class WeightedSum:
    #: (weight, node) pairs; weights are fractions (40% → 0.4) or 1.0.
    terms: Tuple[Tuple[float, "Node"], ...]

    def references(self) -> set:
        refs: set = set()
        for _, node in self.terms:
            refs |= node.references()
        return refs


@dataclass(frozen=True)
class Combine:
    op: str  # '&' or '|'
    left: "Node"
    right: "Node"

    def references(self) -> set:
        return self.left.references() | self.right.references()


Node = Union[RuleRef, WeightedSum, Combine]


# ------------------------------------------------------------ tokenizer
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ref>[rR]\s*\d+)|(?P<num>\d+(?:\.\d+)?)|(?P<sym>[%*+&|()]))"
)


def tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected character at {text[pos:]!r}")
        if match.group("ref"):
            tokens.append(("ref", match.group("ref").replace(" ", "")[1:]))
        elif match.group("num"):
            tokens.append(("num", match.group("num")))
        else:
            tokens.append(("sym", match.group("sym")))
        pos = match.end()
    return tokens


# --------------------------------------------------------------- parser
class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.take()
        if tok != ("sym", sym):
            raise ExprError(f"expected {sym!r}, got {tok!r}")

    # expression := sum (('&'|'|') sum)*     (left-associative)
    def expression(self) -> Node:
        node = self.sum()
        while self.peek() in (("sym", "&"), ("sym", "|")):
            _, op = self.take()
            right = self.sum()
            node = Combine(op=op, left=node, right=right)
        return node

    # sum := product ('+' product)*          (binds tighter than &/|)
    def sum(self) -> Node:
        terms = [self.product()]
        while self.peek() == ("sym", "+"):
            self.take()
            terms.append(self.product())
        if len(terms) == 1 and terms[0][0] == 1.0:
            return terms[0][1]  # a bare operand, not really a sum
        return WeightedSum(terms=tuple(terms))

    # product := [NUMBER '%' '*'] atom
    def product(self) -> Tuple[float, Node]:
        tok = self.peek()
        if tok is not None and tok[0] == "num":
            self.take()
            weight = float(tok[1])
            self.expect_sym("%")
            self.expect_sym("*")
            return (weight / 100.0, self.atom())
        return (1.0, self.atom())

    # atom := '(' expression ')' | ref
    def atom(self) -> Node:
        tok = self.peek()
        if tok == ("sym", "("):
            self.take()
            node = self.expression()
            self.expect_sym(")")
            return node
        if tok is not None and tok[0] == "ref":
            self.take()
            return RuleRef(int(tok[1]))
        raise ExprError(f"expected '(' or rule reference, got {tok!r}")


def parse_expression(text: str) -> Node:
    """Parse a complex-rule expression into an AST."""
    parser = _Parser(tokenize(text))
    node = parser.expression()
    if parser.peek() is not None:
        raise ExprError(f"trailing tokens: {parser.tokens[parser.pos:]!r}")
    return node


# ------------------------------------------------------ array namespace
#: The one-host stand-in for ``numpy``.  The judgement code — this
#: compiler, the evaluator's threshold ladder, the monitor's
#: ``sharpen``/``sustain`` — is written once against an array namespace
#: ``xp``: plain Python numbers under ``scalar``, columns under
#: ``numpy``.  Each width keeps its own arithmetic.
scalar = SimpleNamespace(
    minimum=min,
    maximum=max,
    where=lambda cond, a, b: a if cond else b,
)


def round_levels(xp: Any, levels: Any) -> Any:
    """Severity levels → the nearest state code, clamped to FREE..
    OVERLOADED (``floor(level + 0.5)`` for one host, elementwise over a
    column).  An int code at either width: ``SystemState(code)`` for
    one host, ``.astype(np.int8)`` for a column."""
    rounded = levels + 0.5  # floor(rounded) < k  ⇔  rounded < k
    return xp.where(rounded < 1, FREE,
                    xp.where(rounded < 2, BUSY, OVERLOADED))


# ------------------------------------------------------------- compiler
def compile_node(node: Node, xp: Any) -> Callable[[Callable[[int], Any]], Any]:
    """Compile an AST into a closure ``fn(resolve) -> level``.

    ``resolve(number)`` returns the referenced rule's severity level —
    a number under :data:`scalar`, one element per host under
    ``numpy`` — and every AST node becomes an ``xp`` operation:
    weighted sums are scaled adds, ``&``/``|`` are min/max over rounded
    levels (``&`` = both must agree to escalate, ``|`` = either may —
    see ``states.combine_and``/``combine_or``).  The tree structure is
    baked into nested closures at compile time: evaluating a compiled
    rule performs no ``isinstance`` dispatch and no attribute walks —
    only the ``resolve`` calls at the leaves.  Monitors evaluate the
    same rule expression every interval, so the one-time compilation
    cost amortizes after a handful of cycles.  The tree-walking
    reference it is held equal to lives in ``tests/rules/reference.py``.
    """
    if isinstance(node, RuleRef):
        number = node.number

        def run_ref(resolve: Callable[[int], Any]) -> Any:
            return resolve(number)

        return run_ref
    if isinstance(node, WeightedSum):
        compiled = tuple((w, compile_node(child, xp))
                         for w, child in node.terms)

        def run_sum(resolve: Callable[[int], Any]) -> Any:
            (weight, child), rest = compiled[0], compiled[1:]
            total = weight * child(resolve)
            for weight, child in rest:
                total += weight * child(resolve)
            return total

        return run_sum
    if isinstance(node, Combine):
        left = compile_node(node.left, xp)
        right = compile_node(node.right, xp)
        combine = xp.minimum if node.op == "&" else xp.maximum

        def run_combine(resolve: Callable[[int], Any]) -> Any:
            return combine(round_levels(xp, left(resolve)),
                           round_levels(xp, right(resolve)))

        return run_combine
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover
