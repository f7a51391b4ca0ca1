"""Vectorized rule evaluation: one rule set, every host at once.

The scalar :class:`~repro.rules.evaluator.RuleEvaluator` classifies one
host per call — the right shape for a monitor that owns one machine.
The registry-side decision plane wants the opposite shape: classify
*all* registered hosts in one pass over the host-state matrix.  The
judgement is the same code at both widths — written once in
``RuleEvaluator`` against its array namespace ``xp`` — so this module
holds only what a column changes: ``xp`` is ``numpy`` (a threshold
ladder becomes two ``np.where`` selects, weighted sums scaled adds,
``&``/``|`` elementwise min/max), a measurement is a column, and
states come back as int8 codes.

The *column engine* plays the script engine's role:
``engine(script, param) -> np.ndarray`` returns one value per host
(:func:`repro.registry.hostmatrix.matrix_column_engine` adapts a
:class:`~repro.registry.hostmatrix.HostStateMatrix`).  Engines must be
pure within one evaluation — the vector path reads each leaf from one
coherent snapshot, exactly like a monitor cycle's ``refresh()``.

Both widths stay because their inputs differ, not their rules: on the
paper's five-rule set a column sweep classifies 4096 hosts in the time
of ~20 one-host evaluations, but a width-1 column costs ~7× a one-host
evaluation (docs/decision_plane.md).  ``tests/rules/test_vector.py``
still holds the two equal differentially.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .evaluator import RuleEvaluator, threshold_levels
from .model import SimpleRule


def classify_column(
    values: np.ndarray, operator: str, busy: float, overloaded: float
) -> np.ndarray:
    """A measurement column through
    :func:`~repro.rules.evaluator.threshold_levels`, as int8 state
    codes.  NaN (unreported) values land in FREE — callers that need
    missing data to be loud should mask beforehand.
    """
    return threshold_levels(
        np, values, operator, busy, overloaded
    ).astype(np.int8)


class VectorRuleEvaluator(RuleEvaluator):
    """:class:`~repro.rules.evaluator.RuleEvaluator` over columns: the
    script engine returns one value per host and every evaluation
    returns an int8 state-code array, one element per host.
    :meth:`evaluate_host_states` is the whole-set entry point; the
    inherited one-host ``evaluate_host_state`` does not apply to a
    column.
    """

    xp: Any = np

    def _measure(self, script: str, param: str) -> np.ndarray:
        return np.asarray(self.script_engine(script, param),
                          dtype=np.float64)

    def _as_state(self, level: Any) -> np.ndarray:
        return level.astype(np.int8)

    def _trace_fire(self, rule: SimpleRule, value: Any, level: Any) -> None:
        """No per-rule trace events: they are per-host diagnostics (a
        bulk sweep would drown a trace), which is why the one-host
        width remains the oracle wherever traces matter."""

    def evaluate_host_states(self) -> np.ndarray:
        """Every host's state in one pass: the elementwise most severe
        outcome across top-level rules."""
        level, rules = self._host_level()
        if not rules:
            raise ValueError(
                "empty rule set has no host width; evaluate at least "
                "one rule"
            )
        return self._as_state(level)
