"""Host memory model.

Physical and virtual (physical + swap) capacity and use.  The
monitor's memory sensors (paper §3.1: "available memory and percentage
of available memory for both virtual and physical memory") read these
counters, which nothing changes once a host is built.
"""

from __future__ import annotations


class Memory:
    """Physical + virtual memory accounting for one host."""

    def __init__(
        self,
        physical_total: int = 128 * 1024 * 1024,  # Sun Blade 100: 128 MB
        swap_total: int = 256 * 1024 * 1024,
    ):
        if physical_total <= 0 or swap_total < 0:
            raise ValueError("memory sizes must be positive")
        self.physical_total = int(physical_total)
        self.swap_total = int(swap_total)
        self.physical_used = 0
        self.swap_used = 0

    # -- capacity views -----------------------------------------------------
    @property
    def virtual_total(self) -> int:
        return self.physical_total + self.swap_total

    @property
    def physical_available(self) -> int:
        return self.physical_total - self.physical_used

    @property
    def virtual_used(self) -> int:
        return self.physical_used + self.swap_used

    @property
    def virtual_available(self) -> int:
        return self.virtual_total - self.virtual_used

    @property
    def physical_available_pct(self) -> float:
        return 100.0 * self.physical_available / self.physical_total

    @property
    def virtual_available_pct(self) -> float:
        return 100.0 * self.virtual_available / self.virtual_total
