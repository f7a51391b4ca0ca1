"""Destination-selection strategies over a walk of the host-state
matrix's rows."""

import numpy as np
import pytest

from repro.registry import HostStateMatrix, best_fit, first_fit, random_fit
from repro.rules.states import SystemState


def matrix_of(*hosts):
    """A matrix with one row per ``(name, loadavg1)`` pair, in order."""
    matrix = HostStateMatrix()
    for name, load in hosts:
        matrix.add_row(name, {}, 0.0)
        metrics = {} if load is None else {"loadavg1": load}
        matrix.set_status(name, SystemState.FREE, metrics, 0.0)
    return matrix


def everyone(matrix):
    return iter(range(matrix.n))


def nobody(matrix):
    return iter(())


def names(matrix, rows):
    return [matrix.hosts[int(row)] for row in rows]


def test_first_fit_takes_first():
    m = matrix_of(("b", 0.9), ("a", 0.1), ("c", 0.5))
    assert names(m, first_fit(m, everyone(m), None, 1)) == ["b"]
    assert names(m, first_fit(m, everyone(m), None, 2)) == ["b", "a"]
    assert names(m, first_fit(m, iter([1, 2]), None, 1)) == ["a"]


def test_first_fit_stops_at_its_kth_fit():
    m = matrix_of(("b", 0.9), ("a", 0.1), ("c", 0.5))
    rows = everyone(m)
    assert first_fit(m, rows, None, 2) == [0, 1]
    assert list(rows) == [2]  # the third row was never read


def test_first_fit_empty():
    m = matrix_of(("a", 0.1))
    assert first_fit(m, nobody(m), None, 1) == []
    empty = HostStateMatrix()
    assert first_fit(empty, everyone(empty), None, 1) == []


def test_best_fit_takes_least_loaded():
    m = matrix_of(("b", 0.9), ("a", 0.1), ("c", 0.5))
    assert names(m, best_fit(m, everyone(m), None, 1)) == ["a"]
    assert names(m, best_fit(m, everyone(m), None, 5)) == ["a", "c", "b"]
    # An unreported load ranks as 0.0.
    m = matrix_of(("b", 0.2), ("a", None))
    assert names(m, best_fit(m, everyone(m), None, 1)) == ["a"]


def test_best_fit_tie_breaks_by_name():
    m = matrix_of(("b", 0.5), ("a", 0.5))
    assert names(m, best_fit(m, everyone(m), None, 2)) == ["a", "b"]


def test_best_fit_empty():
    m = matrix_of(("a", 0.1))
    assert best_fit(m, nobody(m), None, 1) == []


def test_random_fit_uniform_and_seeded():
    rng = np.random.default_rng(0)
    m = matrix_of(*[(n, 0.0) for n in "abcd"])
    picks = {names(m, random_fit(m, everyone(m), rng, 1))[0]
             for _ in range(100)}
    assert picks == {"a", "b", "c", "d"}
    # k = 1 consumes the historical single-destination stream.
    seeded, twin = np.random.default_rng(5), np.random.default_rng(5)
    row = random_fit(m, everyone(m), seeded, 1)[0]
    assert row == int(twin.integers(0, 4))
    assert seeded.bit_generator.state == twin.bit_generator.state
    # Wider requests: k distinct rows, ascending, capped at the pool.
    rows = random_fit(m, everyone(m), rng, 3)
    assert len(set(rows)) == 3 and rows == sorted(rows)
    assert len(random_fit(m, everyone(m), rng, 9)) == 4


def test_random_fit_requires_rng():
    m = matrix_of(("a", 0.0))
    with pytest.raises(ValueError):
        random_fit(m, everyone(m), None, 1)


def test_random_fit_empty():
    m = matrix_of(("a", 0.0))
    assert random_fit(m, nobody(m), np.random.default_rng(0), 1) == []
