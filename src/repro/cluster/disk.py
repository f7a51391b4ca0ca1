"""Disk / mount-point model.

The paper's monitor "gathers the disk usage parameters of the various
mount points" (§3.1).  A :class:`Disk` is a mount point with its capacity
and use; a host owns several.
"""

from __future__ import annotations


class Disk:
    """One mount point."""

    def __init__(self, mount: str, total: int, used: int = 0):
        if total <= 0:
            raise ValueError("disk size must be positive")
        if not 0 <= used <= total:
            raise ValueError("used must lie in [0, total]")
        self.mount = mount
        self.total = int(total)
        self.used = int(used)

    @property
    def available(self) -> int:
        return self.total - self.used


class DiskSet:
    """All mount points of a host."""

    def __init__(self):
        self._disks: dict[str, Disk] = {}

    def add(self, mount: str, total: int, used: int = 0) -> Disk:
        if mount in self._disks:
            raise ValueError(f"mount point {mount!r} already exists")
        disk = Disk(mount, total, used)
        self._disks[mount] = disk
        return disk

    def total_available(self) -> int:
        return sum(d.available for d in self._disks.values())
