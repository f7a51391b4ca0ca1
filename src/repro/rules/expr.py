"""Expression grammar for complex rules.

Grammar (whitespace-insensitive; ``r 4`` and ``r4`` both reference
rule 4, as the paper's Figure 4 mixes the two)::

    expression := operand (('&' | '|') operand)*      left-associative
    operand    := '(' sum ')' | ref
    sum        := product ('+' product)*
    product    := [NUMBER '%' '*'] operand
    ref        := 'r' NUMBER

Evaluation maps every node to a *severity level* (free=0, busy=1,
overloaded=2 in the default three-state lattice):

* a weighted sum computes ``Σ wᵢ·levelᵢ`` and rounds to the nearest
  level;
* ``&`` takes the **least** severe side (both must agree to escalate —
  §4's worked example);
* ``|`` takes the **most** severe side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from .states import SystemState, combine_and, combine_or


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


# ------------------------------------------------------------ evaluator
def evaluate(
    node: Node,
    resolve: Callable[[int], SystemState],
    n_levels: int = 3,
) -> SystemState:
    """Evaluate an AST given a resolver from rule number → state."""
    level = _level(node, resolve)
    rounded = int(level + 0.5)
    rounded = max(0, min(rounded, n_levels - 1))
    return SystemState.from_level(rounded, n_levels=n_levels)


# ------------------------------------------------------------- compiler
def compile_node(node: Node) -> Callable[[Callable[[int], SystemState]], float]:
    """Compile an AST into a closure ``fn(resolve) -> level``.

    The returned closure computes exactly what :func:`_level` computes,
    but with the tree structure baked into nested closures at compile
    time: evaluating a compiled rule performs no ``isinstance`` dispatch
    and no attribute walks — only the ``resolve`` calls at the leaves.
    Monitors evaluate the same rule expression every interval, so the
    one-time compilation cost amortizes after a handful of cycles.
    """
    if isinstance(node, RuleRef):
        number = node.number

        def run_ref(resolve: Callable[[int], SystemState]) -> float:
            return float(int(resolve(number)))

        return run_ref
    if isinstance(node, WeightedSum):
        compiled = tuple((w, compile_node(child))
                        for w, child in node.terms)

        def run_sum(resolve: Callable[[int], SystemState]) -> float:
            total = 0.0
            for weight, child in compiled:
                total += weight * child(resolve)
            return total

        return run_sum
    if isinstance(node, Combine):
        left = compile_node(node.left)
        right = compile_node(node.right)
        combine = combine_and if node.op == "&" else combine_or

        def run_combine(resolve: Callable[[int], SystemState]) -> float:
            a = _round_state(left(resolve))
            b = _round_state(right(resolve))
            return float(int(combine(a, b)))

        return run_combine
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


# ---------------------------------------------------- vector compiler
def round_levels(levels: np.ndarray, n_levels: int = 3) -> np.ndarray:
    """Vector twin of the scalar ``int(level + 0.5)`` clamp: severity
    levels → int8 state codes, elementwise.  Levels are non-negative
    (weights and states are), so truncation and floor agree."""
    codes = np.floor(levels + 0.5)
    return np.clip(codes, 0, n_levels - 1).astype(np.int8)


def states_from_levels(levels: np.ndarray,
                       n_levels: int = 3) -> np.ndarray:
    """Vector twin of :meth:`SystemState.from_level`, elementwise:
    severity levels → named int8 state codes via the same thirds
    split (identity when ``n_levels == 3``)."""
    scaled = np.clip(levels, 0, n_levels - 1) / (n_levels - 1)
    return np.where(
        scaled < 1 / 3, np.int8(0),
        np.where(scaled < 2 / 3, np.int8(1), np.int8(2)),
    ).astype(np.int8)


def compile_node_vector(
    node: Node,
) -> Callable[[Callable[[int], np.ndarray]], np.ndarray]:
    """Compile an AST into ``fn(resolve) -> level column``.

    The column twin of :func:`compile_node`: ``resolve(number)`` now
    returns a float array of severity levels — one element per host —
    and every AST node becomes a numpy column operation (weighted sums
    → scaled adds, ``&``/``|`` → elementwise min/max over rounded
    states).  One call classifies the whole host-state matrix; the
    scalar path stays the oracle (docs/decision_plane.md).
    """
    if isinstance(node, RuleRef):
        number = node.number

        def run_ref(resolve: Callable[[int], np.ndarray]) -> np.ndarray:
            return resolve(number)

        return run_ref
    if isinstance(node, WeightedSum):
        compiled = tuple((w, compile_node_vector(child))
                         for w, child in node.terms)

        def run_sum(resolve: Callable[[int], np.ndarray]) -> np.ndarray:
            (weight, child), rest = compiled[0], compiled[1:]
            total = weight * child(resolve)
            for weight, child in rest:
                total += weight * child(resolve)
            return total

        return run_sum
    if isinstance(node, Combine):
        left = compile_node_vector(node.left)
        right = compile_node_vector(node.right)
        # ``&`` = both must agree to escalate (min severity); ``|`` =
        # either may escalate (max) — see states.combine_and/_or.
        combine = np.minimum if node.op == "&" else np.maximum

        def run_combine(
            resolve: Callable[[int], np.ndarray]
        ) -> np.ndarray:
            a = round_levels(left(resolve))
            b = round_levels(right(resolve))
            return combine(a, b).astype(np.float64)

        return run_combine
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


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
