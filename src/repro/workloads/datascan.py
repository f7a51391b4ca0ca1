"""A data-intensive workload: scanning a locally-stored dataset.

Exercises the paper's data-locality consideration (§5.3): "data access
locality is another important issue ... If a process involves a lot in
a local data access, the process is not to be migrated for slight
performance degradation.  These features have been enclosed in the
*application schema*."

The app scans a dataset resident on its host's disk in passes; its
schema carries a high ``data_locality`` weight, so the victim selector
skips it in favour of compute-bound candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List

import numpy as np

from ..hpcm.app import MigratableApp
from ..hpcm.errors import RepartitionError
from ..schema import ApplicationSchema, Characteristics
from ..sim.rng import seeded_generator

#: World size beyond which extra scanners saturate the shared storage
#: and stop helping (the I/O plateau).
IO_SATURATION = 4


@dataclass
class ScanState:
    """Live state of the scanner."""

    dataset_bytes: int
    passes_total: int
    chunk_bytes: int
    scan_rate: float  # bytes per CPU-second (disk-bound)
    offset: int = 0
    passes_done: int = 0
    #: Rolling checksum over simulated records (real arithmetic).
    digest: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: seeded_generator(0)
    )


class DataScanApp(MigratableApp):
    """Repeated full scans over a host-local dataset."""

    name = "data_scan"

    def create_state(self, params: dict, rng: Any) -> ScanState:
        dataset = int(params.get("dataset_bytes", 64 * 2**20))
        passes = int(params.get("passes", 2))
        chunk = int(params.get("chunk_bytes", 8 * 2**20))
        scan_rate = float(params.get("scan_rate", 20e6))
        seed = int(params.get("seed", 0))
        if dataset < 1 or passes < 1 or chunk < 1 or scan_rate <= 0:
            raise ValueError("dataset/passes/chunk/scan_rate invalid")
        return ScanState(
            dataset_bytes=dataset,
            passes_total=passes,
            chunk_bytes=chunk,
            scan_rate=scan_rate,
            rng=seeded_generator(seed),
        )

    def run_step(self, state: ScanState, ctx: Any):
        """Scan one chunk (a poll-point per chunk)."""
        chunk = min(state.chunk_bytes,
                    state.dataset_bytes - state.offset)
        # Real work over a deterministic "record" sample of the chunk.
        records = state.rng.integers(0, 2**32, size=256, dtype=np.uint64)
        state.digest = int(
            (state.digest + int(records.sum())) % (2**63)
        )
        # Past the saturation point extra ranks contend for the shared
        # storage: each scan slows by world size / IO_SATURATION.
        stretch = max(1.0, ctx.size / IO_SATURATION)
        yield ctx.compute(chunk / state.scan_rate * stretch, label="scan")
        state.offset += chunk
        if state.offset >= state.dataset_bytes:
            state.offset = 0
            state.passes_done += 1
        return state.passes_done < state.passes_total

    def finalize(self, state: ScanState) -> int:
        return state.digest

    def default_schema(self) -> ApplicationSchema:
        return ApplicationSchema(
            name=self.name,
            characteristics=Characteristics.DATA,
            data_locality=0.9,  # heavy local I/O: avoid migrating
        )

    def efficiency_curve(self) -> tuple:
        # Linear until the shared storage saturates, then a plateau:
        # n scanners past IO_SATURATION do IO_SATURATION's worth of work.
        return tuple(
            round(min(1.0, IO_SATURATION / n), 4) for n in range(1, 9)
        )

    def repartition(
        self, states: List[ScanState], new_size: int,
        params: dict, rng: Any,
    ) -> List[ScanState]:
        """Pool the un-scanned bytes, deal them out as single passes."""
        remaining = sum(
            (s.passes_total - s.passes_done) * s.dataset_bytes - s.offset
            for s in states
        )
        if remaining < new_size:
            raise RepartitionError(
                f"cannot split {remaining} bytes over {new_size} ranks"
            )
        digest = sum(s.digest for s in states) % (2**63)
        base, extra = divmod(remaining, new_size)
        seed = int(params.get("seed", 0))
        out: List[ScanState] = []
        for i in range(new_size):
            share = base + (1 if i < extra else 0)
            out.append(replace(
                states[i] if i < len(states) else states[0],
                dataset_bytes=share,
                passes_total=1,
                passes_done=0,
                offset=0,
                digest=digest if i == 0 else 0,
                rng=(states[i].rng if i < len(states)
                     else seeded_generator(seed + 10_000 * i + 777)),
            ))
        return out

    @staticmethod
    def expected_digest(params: dict) -> int:
        """Ground truth digest (for migration-invariance checks)."""
        state = DataScanApp().create_state(params, None)
        digest = 0
        rng = seeded_generator(int(params.get("seed", 0)))
        steps_per_pass = -(-state.dataset_bytes // state.chunk_bytes)
        for _ in range(state.passes_total * steps_per_pass):
            records = rng.integers(0, 2**32, size=256, dtype=np.uint64)
            digest = (digest + int(records.sum())) % (2**63)
        return digest
