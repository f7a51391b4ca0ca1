"""The paper's primary contribution: the autonomic rescheduling runtime."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "policy": (
        "KNOWN_METRICS", "MetricPredicate", "MigrationPolicy",
        "PAPER_POLICIES", "malleable_policy", "policy_1", "policy_2",
        "policy_3", "policy_from_dict", "predicate_from_dict",
    ),
    "rescheduler": ("Rescheduler", "ReschedulerConfig"),
})
