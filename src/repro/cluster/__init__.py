"""Cluster substrate: hosts, CPUs, memory, disks, network, load.

A deterministic model of the paper's 64-node Sun Blade testbed:
processor-sharing CPUs with Unix load averages, a max-min-fair fluid
network with per-byte CPU cost, per-host process tables, and background
workload generators.
"""

from .background import BulkTransferLoad, ChatterLoad, CpuHog, DutyCycleLoad
from .builder import DEFAULT_CPU_PER_BYTE, Cluster
from .cpu import Cpu
from .disk import Disk, DiskSet
from .host import Host, HostSpec, StaticInfo
from .loadavg import LoadAverage
from .memory import Memory
from .network import (
    DEFAULT_LATENCY,
    ETHERNET_100MBPS,
    Flow,
    HostDownError,
    Network,
)
from .plane import ClusterStateArrays, HostPlane
from .proctable import ProcEntry, ProcessTable

__all__ = [
    "BulkTransferLoad",
    "ChatterLoad",
    "Cluster",
    "ClusterStateArrays",
    "Cpu",
    "CpuHog",
    "DEFAULT_CPU_PER_BYTE",
    "DEFAULT_LATENCY",
    "Disk",
    "DiskSet",
    "DutyCycleLoad",
    "ETHERNET_100MBPS",
    "Flow",
    "Host",
    "HostDownError",
    "HostPlane",
    "HostSpec",
    "LoadAverage",
    "Memory",
    "Network",
    "ProcEntry",
    "ProcessTable",
    "StaticInfo",
]
