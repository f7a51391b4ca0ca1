"""The paper's evaluation application, ``test_tree``.

"A computational intensive migration-enabled application named
*test_tree*, which creates binary trees with specified number of
levels, assigns a random number to each node of the trees, sorts the
trees and computes the sum of all the tree nodes." (§5)

Following that sentence's order, the application first **builds** all
trees (assigning random node values), then **sorts** each tree, then
**sums** them — one tree per poll-point-separated step.  The trees are
real heap-shaped numpy arrays, so the application's memory state (what
a migration must move) grows as trees are built and shrinks as the sum
phase releases them, and the migrated results are bit-identical to an
unmigrated run.

``node_cost`` scales the *simulated* CPU-seconds per node so that
experiment durations can match the paper's Sun Blade timings without
burning wall-clock time; the array arithmetic itself is still executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List

import numpy as np

from ..hpcm.app import MigratableApp
from ..hpcm.errors import RepartitionError
from ..schema import ApplicationSchema, Characteristics
from ..sim.rng import seeded_generator

#: Phase progression (used when a reshape hands a rank an empty share).
_NEXT_PHASE = {"build": "sort", "sort": "sum", "sum": "done"}


def _deal(items: list, n: int) -> List[list]:
    """Split ``items`` into ``n`` contiguous near-equal shares."""
    base, extra = divmod(len(items), n)
    shares, start = [], 0
    for i in range(n):
        stop = start + base + (1 if i < extra else 0)
        shares.append(items[start:stop])
        start = stop
    return shares


def _spread(count: int, n: int) -> List[int]:
    """Split an integer workload count into ``n`` near-equal parts."""
    base, extra = divmod(count, n)
    return [base + (1 if i < extra else 0) for i in range(n)]


@dataclass
class TreeState:
    """Complete live state of test_tree (picklable)."""

    levels: int
    trees_total: int
    node_cost: float
    phase: str = "build"  # build → sort → sum → done
    index: int = 0        # next tree to process in the current phase
    trees: List = field(default_factory=list)
    checksum: float = 0.0
    #: RNG travels with the state so results are migration-invariant.
    rng: np.random.Generator = field(
        default_factory=lambda: seeded_generator(0)
    )

    @property
    def n_nodes(self) -> int:
        return 2 ** self.levels - 1


class TestTreeApp(MigratableApp):
    """Build all trees, sort each, sum all — one tree per step."""

    name = "test_tree"

    def create_state(self, params: dict, rng: Any) -> TreeState:
        levels = int(params.get("levels", 10))
        trees = int(params.get("trees", 4))
        node_cost = float(params.get("node_cost", 1e-5))
        seed = int(params.get("seed", 0))
        if levels < 1 or trees < 1 or node_cost < 0:
            raise ValueError("levels/trees must be >= 1, node_cost >= 0")
        return TreeState(
            levels=levels,
            trees_total=trees,
            node_cost=node_cost,
            rng=seeded_generator(seed),
        )

    def run_step(self, state: TreeState, ctx: Any):
        n = state.n_nodes
        # A reshape can hand a rank an empty share of some phase;
        # fast-forward through exhausted phases instead of indexing
        # past the end.  (Unreachable for rigid runs: create_state
        # requires trees >= 1.)
        while (state.phase != "done"
               and state.index >= state.trees_total):
            state.phase = _NEXT_PHASE[state.phase]
            state.index = 0
        if state.phase == "done":
            return False
        if state.phase == "build":
            # A heap-shaped complete binary tree as a flat array.
            state.trees.append(state.rng.random(n))
            yield ctx.compute(n * state.node_cost, label="tree-build")
            state.index += 1
            if state.index >= state.trees_total:
                state.phase, state.index = "sort", 0
            return True
        if state.phase == "sort":
            state.trees[state.index] = np.sort(state.trees[state.index])
            log_n = max(1.0, np.log2(n))
            yield ctx.compute(n * log_n * state.node_cost,
                              label="tree-sort")
            state.index += 1
            if state.index >= state.trees_total:
                state.phase, state.index = "sum", 0
            return True
        # sum phase: fold in one tree and release it.
        state.checksum += float(state.trees[state.index].sum())
        state.trees[state.index] = None
        yield ctx.compute(n * state.node_cost, label="tree-sum")
        state.index += 1
        if state.index >= state.trees_total:
            state.phase = "done"
            return False
        return True

    def finalize(self, state: TreeState) -> float:
        return state.checksum

    def default_schema(self) -> ApplicationSchema:
        return ApplicationSchema(
            name=self.name,
            characteristics=Characteristics.COMPUTE,
        )

    def efficiency_curve(self) -> tuple:
        # Trees are independent, but every reshape re-deals whole trees
        # and the checksums must merge — a small per-rank coordination
        # tax on top of near-linear scaling.
        return tuple(
            round(1.0 / (1.0 + 0.05 * (n - 1)), 4) for n in range(1, 9)
        )

    def repartition(
        self, states: List[TreeState], new_size: int,
        params: dict, rng: Any,
    ) -> List[TreeState]:
        """Re-deal whole trees across ranks (same-phase worlds only)."""
        phases = {s.phase for s in states}
        if len(phases) != 1:
            raise RepartitionError("test_tree ranks are out of phase")
        phase = next(iter(phases))
        if phase == "done":
            raise RepartitionError("nothing left to repartition")
        checksum = float(sum(s.checksum for s in states))
        seed = int(params.get("seed", 0))
        if phase == "build":
            built = [t for s in states for t in s.trees]
            pending = sum(s.trees_total - s.index for s in states)
            shares = _deal(built, new_size)
            extra = _spread(pending, new_size)
            todo_shares = None
        elif phase == "sort":
            done = [t for s in states for t in s.trees[:s.index]]
            todo = [t for s in states for t in s.trees[s.index:]]
            shares = _deal(done, new_size)
            todo_shares = _deal(todo, new_size)
            extra = None
        else:  # sum: only the unconsumed trees remain
            todo = [
                t for s in states for t in s.trees[s.index:]
                if t is not None
            ]
            shares = _deal(todo, new_size)
            todo_shares = None
            extra = None
        out: List[TreeState] = []
        for i in range(new_size):
            trees = list(shares[i])
            if phase == "build":
                index = len(trees)
                total = index + extra[i]
            elif phase == "sort":
                index = len(trees)
                trees = trees + list(todo_shares[i])
                total = len(trees)
            else:
                index = 0
                total = len(trees)
            out.append(replace(
                states[i] if i < len(states) else states[0],
                phase=phase,
                index=index,
                trees_total=total,
                trees=trees,
                checksum=checksum if i == 0 else 0.0,
                rng=(states[i].rng if i < len(states)
                     else seeded_generator(seed + 10_000 * i + 777)),
            ))
        return out

    @staticmethod
    def expected_checksum(params: dict) -> float:
        """Ground truth computed directly (for migration-invariance
        tests): the same RNG stream and operations, no middleware."""
        levels = int(params.get("levels", 10))
        trees = int(params.get("trees", 4))
        seed = int(params.get("seed", 0))
        rng = seeded_generator(seed)
        n = 2 ** levels - 1
        built = [rng.random(n) for _ in range(trees)]
        return float(sum(np.sort(t).sum() for t in built))

    @staticmethod
    def total_work(params: dict) -> float:
        """Total simulated CPU-seconds the app needs (reference speed)."""
        levels = int(params.get("levels", 10))
        trees = int(params.get("trees", 4))
        node_cost = float(params.get("node_cost", 1e-5))
        n = 2 ** levels - 1
        log_n = max(1.0, np.log2(n))
        return trees * (n + n * log_n + n) * node_cost
