"""The monitoring information database (paper Figure 2).

A bounded per-metric history of samples, queryable by the rule
evaluator and by the experiment recorders.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

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

    def latest(self, metric: str) -> Optional[float]:
        series = self._series.get(metric)
        return series[-1][1] if series else None

    def latest_time(self, metric: str) -> Optional[float]:
        series = self._series.get(metric)
        return series[-1][0] if series else None

    def series(self, metric: str) -> List[Tuple[float, float]]:
        return list(self._series.get(metric, ()))

    def window(
        self, metric: str, since: float
    ) -> List[Tuple[float, float]]:
        return [(t, v) for t, v in self._series.get(metric, ())
                if t >= since]

    def mean(self, metric: str, since: float = float("-inf")) -> float:
        pts = self.window(metric, since)
        if not pts:
            raise KeyError(f"no samples for {metric!r}")
        return sum(v for _, v in pts) / len(pts)

    def metrics(self) -> Iterable[str]:
        return sorted(self._series)

    def __contains__(self, metric: str) -> bool:
        return metric in self._series
