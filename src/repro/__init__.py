"""repro — reproduction of *A Runtime System for Autonomic Rescheduling
of MPI Programs* (Du, Ghosh, Shankar, Sun; ICPP 2004).

The package layers, bottom-up:

* :mod:`repro.sim` — discrete-event kernel (events, processes, a
  store with immediate puts, fair-share servers);
* :mod:`repro.cluster` — hosts, CPUs, load averages, max-min-fair
  network;
* :mod:`repro.mpi` — simulated MPI-2 with dynamic process management;
* :mod:`repro.hpcm` — process-migration middleware (poll-points, state
  capture/restore, overlapped restoration);
* :mod:`repro.schema` — XML application schemas;
* :mod:`repro.rules` — the rule-based decision mechanism;
* :mod:`repro.monitor` / :mod:`repro.registry` /
  :mod:`repro.commander` / :mod:`repro.protocol` — the rescheduler
  entities and their XML protocol;
* :mod:`repro.core` — the :class:`~repro.core.Rescheduler` façade and
  the paper's migration policies;
* :mod:`repro.workloads` — migration-enabled applications;
* :mod:`repro.metrics` / :mod:`repro.analysis` — recorders and the
  experiment drivers that regenerate every figure and table.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": ("Cluster",),
    "core": (
        "MetricPredicate", "MigrationPolicy", "Rescheduler",
        "ReschedulerConfig", "policy_1", "policy_2", "policy_3",
    ),
    "hpcm": ("HpcmRuntime", "MigratableApp", "MigrationOrder"),
    "mpi": ("MpiRuntime",),
    "rules": ("SystemState",),
    "schema": ("ApplicationSchema",),
})
__all__ += ["__version__"]
