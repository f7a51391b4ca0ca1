"""Registry/scheduler: soft-state registration + migration decisions."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "hostmatrix": (
        "METRIC_COLUMNS", "HostStateMatrix", "matrix_column_engine",
    ),
    "registry": (
        "DEFAULT_COMMAND_COOLDOWN", "DEFAULT_DECISION_COST", "DEFAULT_LEASE",
        "Reconfigure", "RegistryScheduler",
    ),
    "softstate": ("HostRecord", "SoftStateTable"),
    "strategies": ("STRATEGIES", "best_fit", "first_fit", "random_fit"),
})
