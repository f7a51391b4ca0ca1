"""Unix-style exponentially damped load averages.

The kernel's classic computation: every ``sample_interval`` seconds the
run-queue length ``n`` is folded into three moving averages::

    load = load * k + n * (1 - k),   k = exp(-interval / window)

with windows of 60 s (1-minute), 300 s (5-minute) and 900 s
(15-minute).  The paper's Rule 1 and the §5.3 policies threshold on the
1-minute value; Figure 5 plots it.

The fold itself lives in :meth:`LoadAverage.fold` and the constants in
:func:`decay_factors`.  In a cluster nobody calls ``fold`` per host:
the batched host plane (:mod:`repro.cluster.plane`) folds whole
*columns* and writes the results back into each host's
:class:`LoadAverage`.  The two are bit-identical — numpy's elementwise
``col * k + n * mk`` performs exactly the two float64 multiplies and
one add of :meth:`LoadAverage.fold` (no fused multiply-add) — which is
the property ``tests/cluster/test_plane.py`` enforces by folding
per host against the plane.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: The traditional kernel sampling period.
DEFAULT_SAMPLE_INTERVAL = 5.0

#: (attribute name, window seconds)
WINDOWS = (("one", 60.0), ("five", 300.0), ("fifteen", 900.0))


@lru_cache(maxsize=None)
def decay_factors(sample_interval: float) -> tuple:
    """``((k, 1 - k), ...)`` for the 1/5/15-minute windows.

    The one constant table: :meth:`LoadAverage.fold` and the host
    plane's column fold both read their ``k``/``1 - k`` pairs from
    here.
    """
    if sample_interval <= 0:
        raise ValueError("sample_interval must be positive")
    return tuple(
        (k, 1.0 - k)
        for k in (
            math.exp(-float(sample_interval) / window)
            for _, window in WINDOWS
        )
    )


class LoadAverage:
    """The 1/5/15-minute load averages of one host: a passive value.

    Whoever samples the run queue — the host plane, for every host of
    a cluster at once — either calls :meth:`fold` or writes
    ``one``/``five``/``fifteen`` directly.

    Parameters
    ----------
    sample_interval:
        Seconds between samples (default 5, like the Unix kernel).
    """

    def __init__(self, sample_interval: float = DEFAULT_SAMPLE_INTERVAL):
        self.sample_interval = float(sample_interval)
        self.one = 0.0
        self.five = 0.0
        self.fifteen = 0.0
        (
            (self.k_one, self.mk_one),
            (self.k_five, self.mk_five),
            (self.k_fifteen, self.mk_fifteen),
        ) = decay_factors(self.sample_interval)

    def fold(self, n: float) -> None:
        """Fold one run-queue reading into all three averages: the
        per-host arithmetic the plane's column fold must reproduce bit
        for bit."""
        self.one = self.one * self.k_one + n * self.mk_one
        self.five = self.five * self.k_five + n * self.mk_five
        self.fifteen = self.fifteen * self.k_fifteen + n * self.mk_fifteen

    def as_tuple(self) -> tuple:
        """(1-min, 5-min, 15-min) like ``os.getloadavg``."""
        return (self.one, self.five, self.fifteen)

    def __repr__(self) -> str:
        return (
            f"<LoadAverage {self.one:.2f} {self.five:.2f} "
            f"{self.fifteen:.2f}>"
        )
