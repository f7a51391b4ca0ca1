"""Experiment drivers regenerating every figure and table of §5.

Each ``run_*`` driver returns its sweep cell's JSON-safe summary
(:data:`repro.perf.experiments.CELLS` names the driver of each cell).
"""

from .efficiency import run_efficiency_experiment
from .malleability import run_malleability_experiment
from .overhead import run_overhead_experiment
from .policies import DEFAULT_PARAMS, run_policy_experiment, run_table2
from .scenarios import run_lease, run_orders, run_overload
from .states import run_table1

__all__ = [
    "DEFAULT_PARAMS",
    "run_efficiency_experiment",
    "run_lease",
    "run_malleability_experiment",
    "run_orders",
    "run_overload",
    "run_overhead_experiment",
    "run_policy_experiment",
    "run_table1",
    "run_table2",
]
