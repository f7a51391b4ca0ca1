"""The monitoring information database (paper Figure 2).

A bounded per-metric history of the samples each monitoring cycle
takes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Tuple

#: Samples each metric's series keeps; older ones fall off.
MAX_SAMPLES = 1024


class MonitoringDatabase:
    """Ring-buffered time series per metric."""

    def __init__(self):
        self._series: Dict[str, deque] = {}

    def record(self, timestamp: float, snapshot: Dict[str, float]) -> None:
        """Store one snapshot of all metrics."""
        for metric, value in snapshot.items():
            series = self._series.get(metric)
            if series is None:
                series = deque(maxlen=MAX_SAMPLES)
                self._series[metric] = series
            series.append((timestamp, float(value)))

    def series(self, metric: str) -> List[Tuple[float, float]]:
        return list(self._series.get(metric, ()))

    def metrics(self) -> Iterable[str]:
        return sorted(self._series)
