"""Migration policies (paper §5.3).

A policy is a group of rules: *triggers* (any one firing marks the
source overloaded), *source guards* (all must hold for a migration to
be allowed), and *destination conditions* (all must hold on a candidate
host).  The paper's three evaluation policies ship ready-made.

Note on Policy 3's communication clause: the paper lists "the current
incoming/outgoing communication flow is no more than 5 MB/s" under the
migrate-when-any conditions, which read literally would trigger
migration on every idle host.  We implement the evidently intended
semantics — it is a *guard*: an overloaded host may only migrate a
process out while its own communication flow is ≤ 5 MB/s (moving
process state through a saturated NIC would stall both), and a
destination is only eligible while its flow is ≤ 3 MB/s.  This
interpretation reproduces Table 2's outcome (Policy 3 rejects the
communication-busy workstation 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Tuple

from ..rules.vocabulary import (
    METRICS as KNOWN_METRICS,  # what a predicate may reference
    OPERATORS,
)


@dataclass(frozen=True)
class MetricPredicate:
    """``metric OP value`` over a status snapshot."""

    metric: str
    op: str
    value: float

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise ValueError(f"unsupported operator {self.op!r}")
        if self.metric not in KNOWN_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    def holds(self, metrics: Mapping[str, Any]) -> Any:
        """True when the predicate is satisfied (missing metric → False).

        ``metrics`` maps metric names to numbers (one snapshot → a
        bool) or to numpy columns (every host at once → a bool column,
        NaN failing like a missing metric)."""
        value = metrics.get(self.metric)
        if value is None:
            return False
        return OPERATORS[self.op](value, self.value)

    def __str__(self) -> str:
        return f"{self.metric} {self.op} {self.value:g}"


@dataclass(frozen=True)
class MigrationPolicy:
    """A named group of trigger/guard/destination rules."""

    name: str
    enabled: bool = True
    #: Any one firing ⇒ the host wants to migrate out.
    triggers: Tuple[MetricPredicate, ...] = ()
    #: All must hold for the source to actually migrate.
    source_guards: Tuple[MetricPredicate, ...] = ()
    #: All must hold on an eligible destination.
    dest_conditions: Tuple[MetricPredicate, ...] = ()
    #: Destination-selection strategy name (``registry.strategies``).
    strategy: str = "first_fit"
    # -- malleability (docs/malleability.md) --------------------------
    #: Any one firing on an overloaded source ⇒ prefer *growing* the
    #: victim's world onto ``grow_step`` extra hosts over moving it.
    grow_triggers: Tuple[MetricPredicate, ...] = ()
    #: Any one firing on an overloaded source ⇒ prefer *retiring* the
    #: source's rank (vacate the contended host entirely).  Checked
    #: before ``grow_triggers``: the shrink thresholds mark the more
    #: severe condition.
    shrink_triggers: Tuple[MetricPredicate, ...] = ()
    #: Hosts requested per Expand decision (the N in N:M).
    grow_step: int = 1
    #: Policy-level world bounds, intersected with the application
    #: schema's own ``min_world``/``max_world``; ``max_world=0`` means
    #: "no policy cap" (the schema alone rules).  Deliberately *not*
    #: validated here — ``repro lint`` flags min>max as P107 so a bad
    #: policy file is a finding, not a stack trace.
    min_world: int = 1
    max_world: int = 0
    #: Expand only while the victim's declared parallel efficiency at
    #: the grown size stays at or above this floor.
    min_efficiency: float = 0.0

    @property
    def malleable(self) -> bool:
        """Does this policy ever reshape worlds (vs 1:1 migration)?"""
        return bool(self.grow_triggers or self.shrink_triggers)

    def world_cap(self, schema_max: int) -> int:
        """Effective max world: the schema cap, tightened by a
        non-zero policy cap."""
        if self.max_world:
            return min(int(schema_max), self.max_world)
        return int(schema_max)

    def world_floor(self, schema_min: int) -> int:
        """Effective min world: the looser of the two floors wins."""
        return max(int(schema_min), self.min_world)


# ------------------------------------------------------- (de)serialization
def predicate_from_dict(d: dict) -> MetricPredicate:
    """Build a predicate from ``{"metric": ..., "op": ..., "value": ...}``."""
    try:
        return MetricPredicate(
            metric=str(d["metric"]), op=str(d["op"]), value=float(d["value"])
        )
    except KeyError as exc:
        raise ValueError(f"predicate missing key {exc.args[0]!r}") from None


def policy_from_dict(d: dict) -> MigrationPolicy:
    """Build a policy from its JSON/dict form (``repro lint`` and user
    policy files).  Accepts either the policy mapping itself or a
    wrapper ``{"policy": {...}}``."""
    if "policy" in d and isinstance(d["policy"], dict):
        d = d["policy"]
    unknown = set(d) - {
        "name", "enabled", "triggers", "source_guards", "dest_conditions",
        "strategy", "grow_triggers", "shrink_triggers", "grow_step",
        "min_world", "max_world", "min_efficiency",
    }
    if unknown:
        raise ValueError(f"unknown policy keys: {sorted(unknown)}")
    return MigrationPolicy(
        name=str(d.get("name", "unnamed")),
        enabled=bool(d.get("enabled", True)),
        triggers=tuple(predicate_from_dict(p) for p in d.get("triggers", ())),
        source_guards=tuple(
            predicate_from_dict(p) for p in d.get("source_guards", ())
        ),
        dest_conditions=tuple(
            predicate_from_dict(p) for p in d.get("dest_conditions", ())
        ),
        strategy=str(d.get("strategy", "first_fit")),
        grow_triggers=tuple(
            predicate_from_dict(p) for p in d.get("grow_triggers", ())
        ),
        shrink_triggers=tuple(
            predicate_from_dict(p) for p in d.get("shrink_triggers", ())
        ),
        grow_step=int(d.get("grow_step", 1)),
        min_world=int(d.get("min_world", 1)),
        max_world=int(d.get("max_world", 0)),
        min_efficiency=float(d.get("min_efficiency", 0.0)),
    )


def policy_to_dict(policy: MigrationPolicy) -> dict:
    """Inverse of :func:`policy_from_dict` (round-trip stable)."""

    def preds(ps):
        return [
            {"metric": p.metric, "op": p.op, "value": p.value} for p in ps
        ]

    d = {
        "name": policy.name,
        "enabled": policy.enabled,
        "triggers": preds(policy.triggers),
        "source_guards": preds(policy.source_guards),
        "dest_conditions": preds(policy.dest_conditions),
        "strategy": policy.strategy,
    }
    # Malleability keys ride only when used, so rigid policy files
    # round-trip to their historical byte-for-byte JSON form.
    if policy.grow_triggers:
        d["grow_triggers"] = preds(policy.grow_triggers)
    if policy.shrink_triggers:
        d["shrink_triggers"] = preds(policy.shrink_triggers)
    if policy.grow_step != 1:
        d["grow_step"] = policy.grow_step
    if policy.min_world != 1:
        d["min_world"] = policy.min_world
    if policy.max_world != 0:
        d["max_world"] = policy.max_world
    if policy.min_efficiency != 0.0:
        d["min_efficiency"] = policy.min_efficiency
    return d


def load_policy_file(path: str) -> MigrationPolicy:
    """Read a ``*.policy.json`` file into a :class:`MigrationPolicy`."""
    import json

    with open(path, encoding="utf-8") as fh:
        return policy_from_dict(json.load(fh))


def policy_1() -> MigrationPolicy:
    """Policy 1: No migration."""
    return MigrationPolicy(name="policy-1", enabled=False)


def policy_2() -> MigrationPolicy:
    """Policy 2: load/process thresholds, communication-blind.

    Migrate when 1-min load > 2 or active processes > 150; destination
    must have load < 1 and processes < 100.
    """
    return MigrationPolicy(
        name="policy-2",
        triggers=(
            MetricPredicate("loadavg1", ">", 2.0),
            MetricPredicate("proc_count", ">", 150.0),
        ),
        dest_conditions=(
            MetricPredicate("loadavg1", "<", 1.0),
            MetricPredicate("proc_count", "<", 100.0),
        ),
    )


def policy_3() -> MigrationPolicy:
    """Policy 3: Policy 2 plus communication awareness.

    Source may migrate only while its flow ≤ 5 MB/s; destination must
    additionally have flow ≤ 3 MB/s.
    """
    base = policy_2()
    return MigrationPolicy(
        name="policy-3",
        triggers=base.triggers,
        source_guards=(MetricPredicate("comm_mbs", "<=", 5.0),),
        dest_conditions=base.dest_conditions
        + (MetricPredicate("comm_mbs", "<=", 3.0),),
    )


def malleable_policy(
    grow_at: float = 2.0,
    shrink_at: float = 4.0,
    grow_step: int = 1,
    min_efficiency: float = 0.5,
    max_world: int = 0,
) -> MigrationPolicy:
    """Policy 2 extended with the DMR-style reshape ladder.

    An overloaded source first tries to *shrink* (retire its rank and
    vacate the host) when contention is severe (load > ``shrink_at``),
    then to *grow* the world onto ``grow_step`` fresh hosts (load >
    ``grow_at``), and only then falls back to the paper's 1:1
    migration.  Not part of the 2004 paper — see docs/malleability.md
    and docs/paper_mapping.md for the departure.
    """
    base = policy_2()
    return MigrationPolicy(
        name="malleable",
        triggers=base.triggers,
        dest_conditions=base.dest_conditions,
        grow_triggers=(MetricPredicate("loadavg1", ">", grow_at),),
        shrink_triggers=(MetricPredicate("loadavg1", ">", shrink_at),),
        grow_step=grow_step,
        max_world=max_world,
        min_efficiency=min_efficiency,
    )


PAPER_POLICIES = {1: policy_1, 2: policy_2, 3: policy_3}
