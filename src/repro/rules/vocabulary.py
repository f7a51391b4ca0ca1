"""The monitoring vocabulary (paper §4), written once.

A rule file names a *script* (``rl_script``, optionally with an
``rl_param``), every script reads one *metric* of a host's sensor
snapshot, and a rule or policy predicate compares that metric through
one of four *operators* (``rl_operator``).  Those three small tables
are the whole configuration surface of the monitoring side, and every
layer — sensors, script engines, the host-state matrix, the monitor
hub, policies, the rule evaluators, ``repro lint`` — imports them from
here.  This module imports nothing from the package, so it sits below
all of them.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Tuple

_UNBOUNDED = (0.0, math.inf)  # counts, loads, bytes, byte rates
_PERCENT = (0.0, 100.0)

#: Metric → closed value domain, in sorted name order: this is the
#: host-state matrix's column order and the exact key set of one
#: sensor snapshot.
METRIC_DOMAINS: Dict[str, Tuple[float, float]] = {
    "comm_mbs": _UNBOUNDED,
    "cpu_idle_pct": _PERCENT,
    "cpu_util": (0.0, 1.0),
    "disk_avail_bytes": _UNBOUNDED,
    "loadavg1": _UNBOUNDED,
    "loadavg15": _UNBOUNDED,
    "loadavg5": _UNBOUNDED,
    "mem_avail_bytes": _UNBOUNDED,
    "mem_avail_pct": _PERCENT,
    "proc_count": _UNBOUNDED,
    "recv_kbs": _UNBOUNDED,
    "send_kbs": _UNBOUNDED,
    "socket_count": _UNBOUNDED,
    "vmem_avail_pct": _PERCENT,
}

METRICS: Tuple[str, ...] = tuple(METRIC_DOMAINS)

#: Script → {legal parameter → metric}; ``""`` is no ``rl_param``.
SCRIPT_PARAMS: Dict[str, Dict[str, str]] = {
    "processorStatus.sh": {"": "cpu_idle_pct"},
    "loadAvg.sh": {"": "loadavg1", "1": "loadavg1", "5": "loadavg5",
                   "15": "loadavg15"},
    "procCount.sh": {"": "proc_count"},
    "ntStatIpv4.sh": {"": "socket_count", "ESTABLISHED": "socket_count"},
    "netFlow.sh": {"": "comm_mbs"},
    "memInfo.sh": {"": "mem_avail_pct", "virtual": "vmem_avail_pct"},
    "diskUsage.sh": {"": "disk_avail_bytes"},
}

_METRIC_OF = {
    (script, param.casefold()): metric
    for script, params in SCRIPT_PARAMS.items()
    for param, metric in params.items()
}


def script_metric(script: str, param: str = "") -> str:
    """The metric ``script`` reads when fired with ``param``.

    Unknown script → ``KeyError``; a parameter the script does not take
    → ``ValueError``.  Parameters match case-insensitively, surrounding
    blanks ignored.
    """
    try:
        return _METRIC_OF[script, param.strip().casefold()]
    except KeyError:
        if script not in SCRIPT_PARAMS:
            raise KeyError(script) from None
        raise ValueError(
            f"{script}: illegal parameter {param!r} "
            f"(legal: {sorted(SCRIPT_PARAMS[script])})"
        ) from None


#: Script → the value domain of the metric it reads without a
#: parameter: what rule R006 checks a threshold against.  Unknown
#: scripts have no domain.
SCRIPT_DOMAINS: Dict[str, Tuple[float, float]] = {
    script: METRIC_DOMAINS[script_metric(script)] for script in SCRIPT_PARAMS
}


#: The comparison operators of ``rl_operator`` and policy predicates.
#: ``operator.lt`` & co. compare two floats and a numpy column against
#: a float alike, so the scalar and the column paths share this table.
OPERATORS: Dict[str, Callable] = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
