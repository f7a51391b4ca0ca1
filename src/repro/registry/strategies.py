"""Destination-selection strategies.

The paper uses **first fit**: "From the machine list, the
registry/scheduler chooses the first host, which is ready and owns all
the resources required, as the migration destination host."  Best-fit
and random are provided for the ablation study.

A strategy has one shape: ``(matrix, rows, rng, k) -> list``.  It takes
the host-state matrix plus the registry core's walk over the eligible
rows (free ∧ lease current ∧ not excluded ∧ policy destination
conditions ∧ victim requirements), an iterator in registration order,
the paper's "machine list", and returns **at most ``k`` row indices in
preference order** — empty when nothing is eligible.  A 1:1 migration
asks for ``k = 1``; a malleable Expand asks for the policy's grow step.
The walk tests a row only when the strategy asks for it, so first fit
stops at the ``k``-th fit; best and random fit rank every eligible row.

The record-walking reference forms the differential tests compare
against live in ``tests/registry/reference.py``.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Iterator, List

if TYPE_CHECKING:
    from .hostmatrix import HostStateMatrix


def first_fit(matrix: HostStateMatrix, rows: Iterator[int], rng: Any,
              k: int) -> List[int]:
    """The paper's policy: first eligible rows in registration order."""
    return list(islice(rows, k))


def best_fit(matrix: HostStateMatrix, rows: Iterator[int], rng: Any,
             k: int) -> List[int]:
    """Least-loaded eligible rows (1-minute load average), ties broken
    on host name; an unreported load ranks as 0.0."""
    hosts = matrix.hosts

    def rank(row: int) -> tuple:
        load = matrix.metric(row, "loadavg1")
        return (load if load == load else 0.0, hosts[row])

    return sorted(rows, key=rank)[:k]


def random_fit(matrix: HostStateMatrix, rows: Iterator[int], rng: Any,
               k: int) -> List[int]:
    """Uniformly random eligible rows, ascending (needs an rng).

    ``k == 1`` draws with ``rng.integers`` — the stream every seeded
    single-destination run has always consumed — so migration picks and
    the generator position after them are unchanged; wider requests
    take ``k`` distinct rows with one ``rng.choice``.
    """
    rows = list(rows)
    if not rows:
        return rows
    if rng is None:
        raise ValueError("random_fit requires an rng")
    if k == 1:
        return [rows[int(rng.integers(0, len(rows)))]]
    take = min(k, len(rows))
    picks = rng.choice(len(rows), size=take, replace=False)
    return [rows[i] for i in sorted(picks.tolist())]


STRATEGIES = {
    "first_fit": first_fit,
    "best_fit": best_fit,
    "random_fit": random_fit,
}
