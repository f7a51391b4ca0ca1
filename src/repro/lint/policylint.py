"""Static analysis of migration policies (diagnostics ``P101``–``P106``).

A policy is trigger/guard/destination predicates over monitor metrics
(paper §5.3).  Each predicate cuts an interval out of the metric's
value domain; interval arithmetic then answers the questions that
otherwise only surface mid-migration:

======  =========  =====================================================
code    severity   finding
======  =========  =====================================================
P100    error      policy file cannot be loaded (runner-assigned)
P101    error      ping-pong: an eligible destination can simultaneously
                   satisfy a source trigger, so the migrated process
                   immediately wants to move again
P102    error      unsatisfiable destination condition(s)
P103    error      unknown destination-selection strategy
P104    error      unsatisfiable source guard(s): triggers fire but no
                   migration can ever be allowed
P106    warning    a trigger can never fire within the metric's domain
P107    error      malleability bounds are inverted (min_world >
                   max_world): no world size is ever legal
P108    error      reshape ambiguity: a grow and a shrink trigger on
                   the same metric overlap without forming the
                   escalation ladder (shrink region strictly inside
                   the grow region) the runtime's shrink-first
                   ordering assumes, so one status report argues for
                   both reshapes at once or shadows grow entirely
P109    error      malleability knobs out of range (grow_step < 1, or
                   min_efficiency outside [0, 1])
======  =========  =====================================================

Malleability studies (DMR; Resource Optimization with MPI Process
Malleability) single out oscillating reconfiguration as the costliest
misconfiguration — P101 is the static form of that check for 1:1
migration, P108 the form for N:M reshapes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..core.policy import MetricPredicate, MigrationPolicy
from ..registry.strategies import STRATEGIES
from ..rules.vocabulary import METRIC_DOMAINS
from .diagnostics import Diagnostic, Severity

#: Interval: (lo, lo_inclusive, hi, hi_inclusive).
_Interval = Tuple[float, bool, float, bool]

_FULL: _Interval = (-math.inf, False, math.inf, False)


def _interval(pred: MetricPredicate) -> _Interval:
    if pred.op == "<":
        return (-math.inf, False, pred.value, False)
    if pred.op == "<=":
        return (-math.inf, False, pred.value, True)
    if pred.op == ">":
        return (pred.value, False, math.inf, False)
    return (pred.value, True, math.inf, False)


def _domain(metric: str) -> _Interval:
    lo, hi = METRIC_DOMAINS.get(metric, (-math.inf, math.inf))
    return (lo, True, hi, True)


def _intersect(a: _Interval, b: _Interval) -> _Interval:
    # Pick the tighter bound on each side; on ties an exclusive bound wins.
    if a[0] > b[0]:
        lo, lo_inc = a[0], a[1]
    elif b[0] > a[0]:
        lo, lo_inc = b[0], b[1]
    else:
        lo, lo_inc = a[0], a[1] and b[1]
    if a[2] < b[2]:
        hi, hi_inc = a[2], a[3]
    elif b[2] < a[2]:
        hi, hi_inc = b[2], b[3]
    else:
        hi, hi_inc = a[2], a[3] and b[3]
    return (lo, lo_inc, hi, hi_inc)


def _empty(iv: _Interval) -> bool:
    lo, lo_inc, hi, hi_inc = iv
    if lo > hi:
        return True
    if lo == hi:
        return not (lo_inc and hi_inc)
    return False


def _render(iv: _Interval) -> str:
    lo, lo_inc, hi, hi_inc = iv
    left = "[" if lo_inc else "("
    right = "]" if hi_inc else ")"
    return f"{left}{lo:g}, {hi:g}{right}"


def _conjunction(
    preds, metric: str
) -> _Interval:
    """Feasible region for ``metric`` under all predicates that name it."""
    region = _intersect(_FULL, _domain(metric))
    for pred in preds:
        if pred.metric == metric:
            region = _intersect(region, _interval(pred))
    return region


def lint_policy(
    policy: MigrationPolicy, filename: Optional[str] = None
) -> List[Diagnostic]:
    """Lint one policy object."""
    diags: List[Diagnostic] = []

    def report(code, message, severity=Severity.ERROR):
        diags.append(Diagnostic(
            code=code, severity=severity, message=message, file=filename,
            obj=policy.name,
        ))

    if policy.strategy not in STRATEGIES:
        report(
            "P103",
            f"unknown strategy {policy.strategy!r} "
            f"(available: {', '.join(sorted(STRATEGIES))})",
        )

    if not policy.enabled:
        return diags  # a no-migration policy has nothing to trigger

    # P102: destination conditions must admit at least one host state.
    for metric in sorted({p.metric for p in policy.dest_conditions}):
        region = _conjunction(policy.dest_conditions, metric)
        if _empty(region):
            report(
                "P102",
                f"destination conditions on {metric} are unsatisfiable "
                f"within its domain {_render(_domain(metric))}",
            )

    # P104: same for the source guards.
    for metric in sorted({p.metric for p in policy.source_guards}):
        region = _conjunction(policy.source_guards, metric)
        if _empty(region):
            report(
                "P104",
                f"source guards on {metric} are unsatisfiable: triggers "
                f"may fire but migration can never be allowed",
            )

    # P101/P106: each trigger against the destination region.
    for trig in policy.triggers:
        trig_region = _intersect(_interval(trig), _domain(trig.metric))
        if _empty(trig_region):
            report(
                "P106",
                f"trigger '{trig}' can never fire within the metric "
                f"domain {_render(_domain(trig.metric))}",
                severity=Severity.WARNING,
            )
            continue
        dest_region = _conjunction(policy.dest_conditions, trig.metric)
        overlap = _intersect(trig_region, dest_region)
        if not _empty(overlap):
            bounded = any(
                p.metric == trig.metric for p in policy.dest_conditions
            )
            detail = (
                f"hosts with {trig.metric} in {_render(overlap)} are "
                f"eligible destinations yet already satisfy the source "
                f"trigger '{trig}'"
            )
            if not bounded:
                detail += (
                    " (no destination condition bounds "
                    f"{trig.metric} at all)"
                )
            report("P101", f"migration ping-pong: {detail}")

    # -- malleability (docs/malleability.md) --------------------------
    if policy.max_world and policy.min_world > policy.max_world:
        report(
            "P107",
            f"inverted world bounds: min_world={policy.min_world} > "
            f"max_world={policy.max_world}, no world size is ever legal",
        )
    if policy.malleable:
        if policy.grow_step < 1:
            report(
                "P109",
                f"grow_step={policy.grow_step} but an Expand must "
                f"request at least one host",
            )
        if not 0.0 <= policy.min_efficiency <= 1.0:
            report(
                "P109",
                f"min_efficiency={policy.min_efficiency:g} lies outside "
                f"[0, 1], the range of a parallel-efficiency value",
            )
    # P108: grow vs shrink triggers on one metric.  The runtime checks
    # shrink first, so a shrink region *strictly inside* the grow
    # region is the intended escalation ladder (severe contention ⇒
    # vacate, moderate ⇒ widen).  Any other overlap is ambiguous: the
    # regions either coincide/shadow grow entirely (grow can never
    # fire) or partially cross (one report argues for both reshapes) —
    # the N:M form of the P101 ping-pong.
    for grow in policy.grow_triggers:
        grow_region = _intersect(_interval(grow), _domain(grow.metric))
        for shrink in policy.shrink_triggers:
            if grow.metric != shrink.metric:
                continue
            shrink_region = _intersect(
                _interval(shrink), _domain(shrink.metric)
            )
            overlap = _intersect(grow_region, shrink_region)
            if _empty(overlap):
                continue  # disjoint bands: unambiguous
            if overlap == shrink_region and shrink_region != grow_region:
                continue  # ladder: shrink strictly inside grow
            report(
                "P108",
                f"reshape ambiguity: {grow.metric} in "
                f"{_render(overlap)} satisfies both the grow trigger "
                f"'{grow}' and the shrink trigger '{shrink}' without "
                f"forming a shrink-inside-grow escalation ladder; "
                f"separate or nest the bands so a host argues for one "
                f"reshape at a time",
            )
    return diags
