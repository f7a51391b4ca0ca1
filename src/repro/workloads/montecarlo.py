"""Monte-Carlo π — an embarrassingly parallel multi-rank workload.

Each rank draws batches of points per step (poll-points between
batches) and the ranks combine partial counts with an ``allreduce`` at
the end.  Used to exercise migration of one rank of a cooperating MPI
job whose other ranks keep computing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List

import numpy as np

from ..hpcm.app import MigratableApp
from ..hpcm.errors import RepartitionError
from ..schema import ApplicationSchema, Characteristics
from ..sim.rng import seeded_generator


@dataclass
class PiState:
    """Per-rank live state."""

    batches_total: int
    batch_size: int
    sample_cost: float
    batches_done: int = 0
    inside: int = 0
    total: int = 0
    pi_estimate: float = 0.0
    rng: np.random.Generator = field(
        default_factory=lambda: seeded_generator(0)
    )


class MonteCarloPiApp(MigratableApp):
    """Estimate π by rejection sampling in parallel."""

    name = "mc_pi"

    def __init__(self, rank: int = 0):
        self.my_rank = rank

    def create_state(self, params: dict, rng: Any) -> PiState:
        batches = int(params.get("batches", 8))
        batch_size = int(params.get("batch_size", 10_000))
        sample_cost = float(params.get("sample_cost", 1e-7))
        seed = int(params.get("seed", 0))
        if batches < 1 or batch_size < 1:
            raise ValueError("batches and batch_size must be >= 1")
        return PiState(
            batches_total=batches,
            batch_size=batch_size,
            sample_cost=sample_cost,
            rng=seeded_generator(seed + 10_000 * self.my_rank),
        )

    def run_step(self, state: PiState, ctx: Any):
        pts = state.rng.random((state.batch_size, 2))
        # Square the draw where it lies and add the two columns: the
        # same x*x + y*y per point as squaring a copy and reducing the
        # length-2 axis, so the count is exact, not approximately equal.
        pts *= pts
        # int(): a numpy scalar in the state would change its pickle.
        state.inside += int(np.count_nonzero(pts[:, 0] + pts[:, 1] <= 1.0))
        state.total += state.batch_size
        yield ctx.compute(
            state.batch_size * state.sample_cost, label="mc-batch"
        )
        state.batches_done += 1
        if state.batches_done < state.batches_total:
            return True
        # Final combine across the world.
        inside, total = yield from ctx.comm.allreduce(
            (state.inside, state.total),
            op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        state.pi_estimate = 4.0 * inside / total
        return False

    def finalize(self, state: PiState) -> float:
        return state.pi_estimate

    def default_schema(self) -> ApplicationSchema:
        return ApplicationSchema(
            name=self.name,
            characteristics=Characteristics.COMPUTE,
        )

    def efficiency_curve(self) -> tuple:
        # Embarrassingly parallel: only the final allreduce is shared
        # work, so efficiency decays ~1% per extra rank.
        return tuple(round(1.0 - 0.01 * (n - 1), 4) for n in range(1, 9))

    def repartition(
        self, states: List[PiState], new_size: int,
        params: dict, rng: Any,
    ) -> List[PiState]:
        """Merge the counts, deal the remaining batches out evenly."""
        if any(s.batches_done >= s.batches_total for s in states):
            raise RepartitionError("a rank already entered its combine")
        remaining = sum(s.batches_total - s.batches_done for s in states)
        if new_size > remaining:
            raise RepartitionError(
                f"cannot split {remaining} batches over {new_size} ranks"
            )
        base, extra = divmod(remaining, new_size)
        seed = int(params.get("seed", 0))
        # All partial counts fold into rank 0 so no sample is lost no
        # matter which rank later retires; the final allreduce still
        # sees the global totals.
        inside = sum(s.inside for s in states)
        total = sum(s.total for s in states)
        out: List[PiState] = []
        for i in range(new_size):
            share = base + (1 if i < extra else 0)
            out.append(replace(
                states[i] if i < len(states) else states[0],
                batches_total=share,
                batches_done=0,
                inside=inside if i == 0 else 0,
                total=total if i == 0 else 0,
                rng=(states[i].rng if i < len(states)
                     else seeded_generator(seed + 10_000 * i + 777)),
            ))
        return out
