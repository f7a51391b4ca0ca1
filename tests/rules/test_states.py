"""System-state lattice and Table 1 semantics."""

import pytest

from repro.rules import SystemState, combine_and, combine_or


def test_severity_ordering():
    assert SystemState.FREE < SystemState.BUSY < SystemState.OVERLOADED


def test_table1_free():
    s = SystemState.FREE
    assert not s.loaded


def test_table1_busy():
    s = SystemState.BUSY
    assert s.loaded


def test_table1_overloaded():
    s = SystemState.OVERLOADED
    assert s.loaded


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
    assert SystemState.from_level(0) is SystemState.FREE
    assert SystemState.from_level(1) is SystemState.BUSY
    assert SystemState.from_level(2) is SystemState.OVERLOADED


def test_from_level_fine_granularity():
    # A 10-level lattice maps onto thirds.
    assert SystemState.from_level(0, n_levels=10) is SystemState.FREE
    assert SystemState.from_level(2, n_levels=10) is SystemState.FREE
    assert SystemState.from_level(4, n_levels=10) is SystemState.BUSY
    assert SystemState.from_level(9, n_levels=10) is SystemState.OVERLOADED


def test_from_level_clamps():
    assert SystemState.from_level(-5) is SystemState.FREE
    assert SystemState.from_level(99) is SystemState.OVERLOADED


def test_from_level_validation():
    with pytest.raises(ValueError):
        SystemState.from_level(0, n_levels=1)
