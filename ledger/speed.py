"""How fast the machine is right now, and timings scaled to a fixed speed.

The ledger runs on a few vCPUs of a shared host.  Neighbours on the
same cores slow the guest by up to 40 % for seconds to minutes at a
time: ten runs of unchanged code spread 20-30 % however long each run
and whatever statistic it reports (README, "Why timings are scaled").
Nothing inside a run can wait that out, so the ledger measures the
machine next to the program: a fixed loop of plain interpreter work —
allocation, dict and list traffic, string building, a sort, a few MB
of working set, nothing from ``repro`` — runs before and after every
timed iteration, and the iteration's time is divided by how much
slower than ``REFERENCE_S`` the loop ran around it.  A timing so scaled
reads "seconds on the reference machine": the build VM when nothing
else contends for its core.

The loop must never import or call the program under test: a change
that slows the program has to leave the loop alone.
"""

from __future__ import annotations

import gc
import os
import time
from operator import itemgetter

#: One ``calibration_loop()`` on the build machine (2 vCPUs of a Xeon at
#: 2.1 GHz, Python 3.11) in its quiet state.
REFERENCE_S = 0.0047
#: The share of an iteration's wall time spent gauging after it.
GAUGE_SHARE = 0.04

_ROWS = 12_000


def calibration_loop() -> float:
    """Seconds one pass of the fixed loop took."""
    t0 = time.perf_counter()
    table = {}
    for i in range(_ROWS):
        table[(i * 7919) % 100_003] = [i, str(i), (i, i + 1)]
    total = 0
    for row in table.values():
        total += row[0] + len(row[1])
    table = sorted(table.values(), key=itemgetter(1))
    return time.perf_counter() - t0


def slowdown(budget_s: float = 0.0) -> float:
    """Machine speed now: mean loop time over ``REFERENCE_S`` (1.0 = the
    reference machine, 1.4 = 40 % slower).  Runs the loop at least
    twice, and on until ``budget_s`` is spent.

    The collector is emptied first and off meanwhile: the loop's
    allocations would otherwise trigger collections over whatever heap
    the program's last iteration left (at 4096 hosts that made the
    loop read ten times slower than the machine was)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        times = [calibration_loop(), calibration_loop()]
        while time.perf_counter() - start < budget_s:
            times.append(calibration_loop())
    finally:
        if was_enabled:
            gc.enable()
    return sum(times) / len(times) / REFERENCE_S


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it starts) to the last CPU it
    may use.  The program under test is GIL-bound; unpinned, the live
    registry's thread hand-offs flip between a same-CPU and a cross-CPU
    regime that differ by 2x."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
