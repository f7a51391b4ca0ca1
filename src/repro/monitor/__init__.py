"""Per-host monitoring: sensors, scripts, database, monitor entity."""

from .database import MonitoringDatabase
from .hub import MonitorHub
from .monitor import DEFAULT_CYCLE_COST, DEFAULT_INTERVAL, Monitor
from .scripts import SimScriptEngine
from .selector import ProcessInfo, collect_process_info, select_victim
from .sensors import SensorSuite

__all__ = [
    "DEFAULT_CYCLE_COST",
    "DEFAULT_INTERVAL",
    "Monitor",
    "MonitorHub",
    "MonitoringDatabase",
    "ProcessInfo",
    "SensorSuite",
    "SimScriptEngine",
    "collect_process_info",
    "select_victim",
]
