"""System-state lattice and Table 1 semantics."""

import numpy as np

from repro.rules import SystemState, combine_and, combine_or
from repro.rules.expr import round_levels, scalar


def test_severity_ordering():
    assert SystemState.FREE < SystemState.BUSY < SystemState.OVERLOADED


def test_combine_and_paper_semantics():
    F, B, O = SystemState.FREE, SystemState.BUSY, SystemState.OVERLOADED
    # "busy if both ... are in busy or one of them is in busy and the
    # other is in overloaded"
    assert combine_and(B, B) is B
    assert combine_and(B, O) is B
    assert combine_and(O, B) is B
    assert combine_and(O, O) is O
    assert combine_and(F, O) is F


def test_combine_or_escalates():
    F, B, O = SystemState.FREE, SystemState.BUSY, SystemState.OVERLOADED
    assert combine_or(F, O) is O
    assert combine_or(F, B) is B
    assert combine_or(F, F) is F


def test_from_level_three_states():
    """A level's state (``round_levels``): the three levels are the
    three state codes, at both widths."""
    assert [SystemState(round_levels(scalar, x)) for x in (0, 1, 2)] == [
        SystemState.FREE, SystemState.BUSY, SystemState.OVERLOADED]
    assert round_levels(np, np.array([0, 1, 2])).tolist() == [0, 1, 2]


def test_from_level_clamps():
    """Levels round to the nearest state code and clamp to 0..2."""
    levels = [-5.0, 0.4, 0.5, 1.49, 1.5, 2.4, 99.0]
    expected = [0, 0, 1, 1, 2, 2, 2]
    assert [round_levels(scalar, x) for x in levels] == expected
    assert round_levels(np, np.array(levels)).tolist() == expected
