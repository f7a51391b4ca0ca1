"""Experiment drivers regenerating every figure and table of §5."""

from .efficiency import EfficiencyResult, run_efficiency_experiment
from .malleability import (
    MalleabilityResult,
    MalleabilityRun,
    run_malleability_experiment,
)
from .overhead import OverheadResult, OverheadRun, run_overhead_experiment
from .policies import (
    DEFAULT_PARAMS,
    PolicyRunResult,
    run_policy_experiment,
    run_table2,
)
from .scenarios import run_lease, run_orders, run_overload
from .states import StateRow, run_table1

__all__ = [
    "DEFAULT_PARAMS",
    "EfficiencyResult",
    "MalleabilityResult",
    "MalleabilityRun",
    "OverheadResult",
    "OverheadRun",
    "PolicyRunResult",
    "StateRow",
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
