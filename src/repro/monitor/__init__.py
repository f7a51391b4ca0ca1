"""Per-host monitoring: sensors, scripts, database, monitor entity."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "database": ("MonitoringDatabase",),
    "hub": ("MonitorHub",),
    "monitor": ("DEFAULT_CYCLE_COST", "DEFAULT_INTERVAL", "Monitor"),
    "selector": ("ProcessInfo", "collect_process_info", "select_victim"),
    "sensors": ("SensorSuite", "SimScriptEngine"),
})
