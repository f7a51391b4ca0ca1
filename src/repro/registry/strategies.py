"""Destination-selection strategies.

The paper uses **first fit**: "From the machine list, the
registry/scheduler chooses the first host, which is ready and owns all
the resources required, as the migration destination host."  Best-fit
and random are provided for the ablation study.

A strategy has one shape: ``(matrix, mask, rng, k) -> rows``.  It takes
the host-state matrix plus the eligibility mask the registry core built
(free ∧ not-excluded ∧ policy destination conditions ∧ victim
requirements) and returns **at most ``k`` row indices in preference
order** as an ``np.ndarray`` — empty when nothing is eligible.  A 1:1
migration asks for ``k = 1``; a malleable Expand asks for the policy's
grow step.  Row order is registration order, the paper's "machine
list", which is what makes first fit deterministic.

The record-walking reference forms the differential tests compare
against live in ``tests/registry/reference.py``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .hostmatrix import HostStateMatrix


def first_fit(matrix: HostStateMatrix, mask: np.ndarray, rng: Any,
              k: int) -> np.ndarray:
    """The paper's policy: first eligible rows in registration order."""
    return np.flatnonzero(mask)[:k]


def best_fit(matrix: HostStateMatrix, mask: np.ndarray, rng: Any,
             k: int) -> np.ndarray:
    """Least-loaded eligible rows (1-minute load average), ties broken
    on host name; an unreported load ranks as 0.0."""
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return rows
    load = matrix.metric_column("loadavg1")[rows]
    load = np.where(np.isnan(load), 0.0, load)
    # lexsort's last key is primary: ascending (loadavg1, host).
    order = np.lexsort((matrix.hosts_array[rows], load))
    return rows[order[:k]]


def random_fit(matrix: HostStateMatrix, mask: np.ndarray, rng: Any,
               k: int) -> np.ndarray:
    """Uniformly random eligible rows, ascending (needs an rng).

    ``k == 1`` draws with ``rng.integers`` — the stream every seeded
    single-destination run has always consumed — so migration picks and
    the generator position after them are unchanged; wider requests
    take ``k`` distinct rows with one ``rng.choice``.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return rows
    if rng is None:
        raise ValueError("random_fit requires an rng")
    if k == 1:
        return rows[[int(rng.integers(0, rows.size))]]
    take = min(k, rows.size)
    return rows[np.sort(rng.choice(rows.size, size=take, replace=False))]


STRATEGIES = {
    "first_fit": first_fit,
    "best_fit": best_fit,
    "random_fit": random_fit,
}
