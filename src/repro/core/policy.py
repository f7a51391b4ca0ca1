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

import math
from dataclasses import dataclass
from typing import Any, List, Mapping, Tuple

from ..findings import Diagnostic, error, refuse_errors, warning
from ..registry.strategies import STRATEGIES
from ..rules.vocabulary import (
    METRIC_DOMAINS,
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
    #: "no policy cap" (the schema alone rules).
    min_world: int = 1
    max_world: int = 0
    #: Expand only while the victim's declared parallel efficiency at
    #: the grown size stays at or above this floor.
    min_efficiency: float = 0.0

    def __post_init__(self):
        refuse_errors(self.findings())

    def findings(self) -> List[Diagnostic]:
        """What the policy gets wrong (P101–P109; P106 is a warning).

        Each predicate cuts an interval out of its metric's value
        domain, and interval arithmetic answers what would otherwise
        surface mid-migration.  A disabled policy only names its
        strategy."""
        found: List[Diagnostic] = []

        def report(code, message, make=error):
            found.append(make(code, message, obj=self.name))

        if self.strategy not in STRATEGIES:
            report("P103", f"unknown strategy {self.strategy!r}; choose "
                           f"from {', '.join(STRATEGIES)}")
        if not self.enabled:
            return found
        dests = self.dest_conditions
        for metric in sorted({p.metric for p in dests}):
            if _empty(_region(dests, metric)):
                report("P102", f"destination conditions on {metric} are "
                               f"unsatisfiable within its domain "
                               f"{_render(_domain(metric))}")
        for metric in sorted({p.metric for p in self.source_guards}):
            if _empty(_region(self.source_guards, metric)):
                report("P104", f"source guards on {metric} are "
                               f"unsatisfiable: triggers may fire but "
                               f"migration can never be allowed")
        # P101: a trigger region an eligible destination can sit in is
        # a ping-pong — the migrated process at once wants to move again.
        for trig in self.triggers:
            fires = _region((trig,), trig.metric)
            if _empty(fires):
                report("P106", f"trigger '{trig}' can never fire within "
                               f"the metric domain "
                               f"{_render(_domain(trig.metric))}", warning)
                continue
            overlap = _intersect(fires, _region(dests, trig.metric))
            if not _empty(overlap):
                detail = (f"hosts with {trig.metric} in {_render(overlap)} "
                          f"are eligible destinations yet already satisfy "
                          f"the source trigger '{trig}'")
                if not any(p.metric == trig.metric for p in dests):
                    detail += (" (no destination condition bounds "
                               f"{trig.metric} at all)")
                report("P101", f"migration ping-pong: {detail}")
        # -- malleability (docs/malleability.md) --------------------------
        if self.max_world and self.min_world > self.max_world:
            report("P107", f"inverted world bounds: min_world="
                           f"{self.min_world} > max_world={self.max_world}, "
                           f"no world size is ever legal")
        if self.malleable:
            if self.grow_step < 1:
                report("P109", f"grow_step={self.grow_step} but an Expand "
                               f"must request at least one host")
            if not 0.0 <= self.min_efficiency <= 1.0:
                report("P109", f"min_efficiency={self.min_efficiency:g} "
                               f"lies outside [0, 1], the range of a "
                               f"parallel-efficiency value")
        # P108: the runtime checks shrink first, so a shrink region
        # *strictly inside* the grow region is the intended escalation
        # ladder (severe contention ⇒ vacate, moderate ⇒ widen).  Any
        # other overlap coincides, shadows grow, or crosses: the N:M
        # form of the P101 ping-pong.
        for grow in self.grow_triggers:
            grows = _region((grow,), grow.metric)
            for shrink in self.shrink_triggers:
                if grow.metric != shrink.metric:
                    continue
                shrinks = _region((shrink,), shrink.metric)
                overlap = _intersect(grows, shrinks)
                if _empty(overlap) or (overlap == shrinks
                                       and shrinks != grows):
                    continue
                report("P108", f"reshape ambiguity: {grow.metric} in "
                               f"{_render(overlap)} satisfies both the grow "
                               f"trigger '{grow}' and the shrink trigger "
                               f"'{shrink}' without forming a "
                               f"shrink-inside-grow escalation ladder; "
                               f"separate or nest the bands so a host "
                               f"argues for one reshape at a time")
        return found

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


# ------------------------------------------------- interval arithmetic
#: Interval: (lo, lo_inclusive, hi, hi_inclusive).
_Interval = Tuple[float, bool, float, bool]


def _domain(metric: str) -> _Interval:
    lo, hi = METRIC_DOMAINS[metric]
    return (lo, True, hi, True)


def _interval(pred: MetricPredicate) -> _Interval:
    closed = pred.op.endswith("=")
    if pred.op.startswith("<"):
        return (-math.inf, False, pred.value, closed)
    return (pred.value, closed, math.inf, False)


def _intersect(a: _Interval, b: _Interval) -> _Interval:
    # Pick the tighter bound on each side; on ties an exclusive bound wins.
    if a[0] != b[0]:
        lo, lo_inc = max((a[0], a[1]), (b[0], b[1]))
    else:
        lo, lo_inc = a[0], a[1] and b[1]
    if a[2] != b[2]:
        hi, hi_inc = min((a[2], a[3]), (b[2], b[3]))
    else:
        hi, hi_inc = a[2], a[3] and b[3]
    return (lo, lo_inc, hi, hi_inc)


def _region(preds, metric: str) -> _Interval:
    """Where ``metric`` may lie under all of ``preds`` that name it."""
    region = _domain(metric)
    for pred in preds:
        if pred.metric == metric:
            region = _intersect(region, _interval(pred))
    return region


def _empty(iv: _Interval) -> bool:
    lo, lo_inc, hi, hi_inc = iv
    return lo > hi or (lo == hi and not (lo_inc and hi_inc))


def _render(iv: _Interval) -> str:
    lo, lo_inc, hi, hi_inc = iv
    return f"{'[' if lo_inc else '('}{lo:g}, {hi:g}{']' if hi_inc else ')'}"


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
