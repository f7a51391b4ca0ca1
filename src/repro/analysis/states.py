"""Experiment driver for Table 1: system-state semantics.

Table 1 is behavioural, not quantitative: a *free* host accepts
migrations in and never migrates out; a *busy* host neither accepts nor
sheds; an *overloaded* host sheds but does not accept.  This driver
exercises each row against the real registry + monitor machinery and
reports what actually happened.
"""

from __future__ import annotations

from typing import Any, Dict

from ..cluster.background import CpuHog
from ..cluster.builder import Cluster
from ..core.policy import MetricPredicate, MigrationPolicy
from ..core.rescheduler import Rescheduler, ReschedulerConfig
from ..workloads.test_tree import TestTreeApp


def _policy() -> MigrationPolicy:
    return MigrationPolicy(
        name="table1",
        triggers=(MetricPredicate("loadavg1", ">", 2.0),),
        dest_conditions=(MetricPredicate("loadavg1", "<", 1.0),),
    )


def run_table1(seed: int = 0) -> Dict[str, Any]:
    """Demonstrate each Table 1 row on a live 3-host deployment: the
    ``table1`` cell's summary — each state's observed behaviour, the
    state each host last reported, and where the app went.

    * ws1 is overloaded (source of a migration-enabled app + hogs);
    * ws2 is busy (a steady single-job load keeps it between the busy
      and overloaded thresholds);
    * ws3 is free.

    The app must leave ws1 (migrate-out) and land on ws3, not ws2
    (migrate-in only for free hosts).
    """
    cluster = Cluster(n_hosts=3, seed=seed)
    CpuHog(cluster["ws1"], count=4, name="overload")
    CpuHog(cluster["ws2"], count=1, name="steady")  # load ≈ 1 → busy

    # Make "busy" visible: load ≥ 1 is busy for the monitor's ruleset.
    from ..rules.builtin import LOAD_AVERAGE
    from ..rules.model import RuleSet

    ruleset = RuleSet()
    ruleset.add(LOAD_AVERAGE)  # busy > 1, overloaded > 2

    rs = Rescheduler(
        cluster,
        policy=_policy(),
        config=ReschedulerConfig(interval=10.0, sustain=2,
                                 ruleset=ruleset),
        registry_host="ws3",
    )
    params = {"levels": 10, "trees": 120, "node_cost": 2e-4, "seed": 1}
    app = rs.launch_app(TestTreeApp(), "ws1", params=params)
    cluster.env.run(until=app.done)

    migrated_to = app.host.name
    return {
        "states": {
            "free": {"loaded": False,
                     "migrate_in": migrated_to == "ws3",
                     "migrate_out": False},
            "busy": {"loaded": True,
                     "migrate_in": migrated_to == "ws2",
                     "migrate_out": False},
            "overloaded": {"loaded": True,
                           "migrate_in": False,
                           "migrate_out": migrated_to != "ws1"},
        },
        "observed": {
            name: rs.monitors[name].reported_state.name.lower()
            for name in ("ws1", "ws2", "ws3")
        },
        "migrated_to": migrated_to,
    }
