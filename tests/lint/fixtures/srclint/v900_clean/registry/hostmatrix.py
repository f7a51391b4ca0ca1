"""Host-state columns in the canonical sorted order."""

METRIC_COLUMNS = ("cpu_idle_pct", "loadavg1", "mem_free")

_SCRIPT_METRICS = {
    "loadAvg.sh": 0,
    "memInfo.sh": 1,
    "procCount.sh": 2,
    "diskUsage.sh": 3,
}


def column_of(script):
    return _SCRIPT_METRICS[script]
