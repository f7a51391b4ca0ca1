"""Time-series containers for experiment measurements."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class TimeSeries:
    """An append-only (time, value) series with summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []
        # Array views are materialized lazily and invalidated on append,
        # so repeated stat queries over a settled series don't rebuild
        # the ndarrays on every property access.
        self._times_arr: Optional[np.ndarray] = None
        self._values_arr: Optional[np.ndarray] = None

    @classmethod
    def from_points(
        cls, points: "List[Tuple[float, float]]", name: str = ""
    ) -> "TimeSeries":
        """Rebuild a series from ``points()`` output (e.g. after a
        round-trip through a ``repro sweep --out`` summary)."""
        ts = cls(name)
        for t, value in points:
            ts.append(t, value)
        return ts

    def append(self, t: float, value: float) -> None:
        if self._times and t < self._times[-1]:
            raise ValueError("timestamps must be non-decreasing")
        self._times.append(float(t))
        self._values.append(float(value))
        self._times_arr = None
        self._values_arr = None

    def append_many(self, times, values) -> None:
        """Bulk append of parallel time/value sequences.

        One validation pass over arrays instead of a Python call per
        sample — the shape the vectorized host plane produces, where a
        whole column of per-host samples lands per kernel step.  Same
        invariants as :meth:`append` (equal lengths, non-decreasing
        timestamps, including against the existing tail); on a
        validation error the series is left untouched.
        """
        t_arr = np.asarray(times, dtype=float)
        v_arr = np.asarray(values, dtype=float)
        if t_arr.shape != v_arr.shape or t_arr.ndim != 1:
            raise ValueError("times and values must be equal-length 1-D")
        if t_arr.size == 0:
            return
        if np.any(np.diff(t_arr) < 0) or (
            self._times and t_arr[0] < self._times[-1]
        ):
            raise ValueError("timestamps must be non-decreasing")
        self._times.extend(t_arr.tolist())
        self._values.extend(v_arr.tolist())
        self._times_arr = None
        self._values_arr = None

    # -- views ------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        arr = self._times_arr
        if arr is None:
            arr = self._times_arr = np.asarray(self._times)
        return arr

    @property
    def values(self) -> np.ndarray:
        arr = self._values_arr
        if arr is None:
            arr = self._values_arr = np.asarray(self._values)
        return arr

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times)

    # -- statistics ---------------------------------------------------------
    def mean(self, t_min: float = -np.inf, t_max: float = np.inf) -> float:
        sel = self._select(t_min, t_max)
        if not sel.size:
            raise ValueError(f"no samples in [{t_min}, {t_max}]")
        return float(sel.mean())

    def max(self, t_min: float = -np.inf, t_max: float = np.inf) -> float:
        sel = self._select(t_min, t_max)
        if not sel.size:
            raise ValueError(f"no samples in [{t_min}, {t_max}]")
        return float(sel.max())

    def min(self, t_min: float = -np.inf, t_max: float = np.inf) -> float:
        sel = self._select(t_min, t_max)
        if not sel.size:
            raise ValueError(f"no samples in [{t_min}, {t_max}]")
        return float(sel.min())

    def _select(self, t_min: float, t_max: float) -> np.ndarray:
        t = self.times
        mask = (t >= t_min) & (t <= t_max)
        return self.values[mask]

    def value_at(self, t: float) -> Optional[float]:
        """Last sample at or before ``t`` (step interpolation)."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0:
            return None
        return self._values[idx]

    def overhead_vs(self, baseline: "TimeSeries") -> float:
        """Relative mean increase over a baseline series (Figure 5's
        'overhead is 3.9%' metric)."""
        base = baseline.mean()
        if base == 0:
            raise ValueError("baseline mean is zero")
        return (self.mean() - base) / base
