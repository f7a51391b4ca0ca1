"""Registry/scheduler: soft-state registration + migration decisions."""

from .hostmatrix import (
    METRIC_COLUMNS,
    HostStateMatrix,
    dest_mask,
    matrix_column_engine,
    requirements_mask,
)
from .registry import (
    DEFAULT_COMMAND_COOLDOWN,
    DEFAULT_DECISION_COST,
    Reconfigure,
    RegistryScheduler,
)
from .softstate import HostRecord, SoftStateTable
from .strategies import (
    STRATEGIES,
    best_fit,
    first_fit,
    random_fit,
)

__all__ = [
    "DEFAULT_COMMAND_COOLDOWN",
    "DEFAULT_DECISION_COST",
    "HostRecord",
    "HostStateMatrix",
    "METRIC_COLUMNS",
    "Reconfigure",
    "RegistryScheduler",
    "STRATEGIES",
    "SoftStateTable",
    "best_fit",
    "dest_mask",
    "first_fit",
    "matrix_column_engine",
    "random_fit",
    "requirements_mask",
]
