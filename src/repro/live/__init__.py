"""Live mode: the rescheduler on real threads, sockets and /proc.

The paper's system ran on real workstations — "a cluster of SUN
workstations" with entities talking over "a custom XML based protocol
with TCP/IP sockets" (§3.3, §5).  Live mode demonstrates the same
thing of this reproduction: the design is not simulation-bound.  The
same XML protocol, soft-state table (§3.2), victim selection and
policies (§5.3) run as real threads exchanging frames over localhost
TCP, with /proc-backed sensors standing in for the monitoring scripts
of §3.1, rescheduling genuinely-computing tasks whose pickled state
moves over the wire.
"""

from .node import LiveNode, LiveTask, default_ruleset
from .proc_sensors import (
    CpuIdleSampler,
    NetRateSampler,
    load_averages,
    memory_info,
    net_bytes,
    process_count,
    snapshot,
)
from .registry import LiveRegistry
from .tasks import (
    TASK_TYPES,
    collatz_census_state,
    sqrt_sum_expected,
    sqrt_sum_state,
)
from .transport import LiveEndpoint

__all__ = [
    "CpuIdleSampler",
    "LiveEndpoint",
    "LiveNode",
    "LiveRegistry",
    "LiveTask",
    "NetRateSampler",
    "TASK_TYPES",
    "collatz_census_state",
    "default_ruleset",
    "load_averages",
    "memory_info",
    "net_bytes",
    "process_count",
    "snapshot",
    "sqrt_sum_expected",
    "sqrt_sum_state",
]
