"""The stable event-name catalogue.

Every record the instrumented runtime emits uses one of the ``EV_*``
names below; the names are **stable** (trace consumers and the docs
may rely on them) and each is documented in ``docs/tracing.md`` — a
tier-1 test diffs this catalogue against that document and against the
emitting code, so adding an event here without documenting it (or
documenting one that nothing emits) fails the build.

Naming convention: ``<layer>.<what_happened>``, lower-case, one dot.
The layer prefix matches the package that emits the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# -- monitor (paper §3.1) ------------------------------------------------
EV_MONITOR_SAMPLE = "monitor.sample"
EV_MONITOR_REPORT = "monitor.report"

# -- rule engine (paper §4) ----------------------------------------------
EV_RULE_FIRE = "rule.fire"
EV_RULE_EVALUATE = "rule.evaluate"

# -- registry/scheduler (paper §3.2) -------------------------------------
EV_REGISTRY_REGISTER = "registry.register"
EV_REGISTRY_UPDATE = "registry.update"
EV_REGISTRY_EXPIRE = "registry.lease_expired"
EV_REGISTRY_DECIDE = "registry.decide"
EV_REGISTRY_COMMAND = "registry.command"

# -- commander (paper §3.3) ----------------------------------------------
EV_COMMANDER_SIGNAL = "commander.signal"

# -- HPCM migration middleware (paper §3, §5.2) --------------------------
EV_HPCM_POLLPOINT = "hpcm.pollpoint"
EV_HPCM_SPAWN = "hpcm.spawn"
EV_HPCM_CAPTURE = "hpcm.capture"
EV_HPCM_TRANSFER = "hpcm.transfer"
EV_HPCM_RESUME = "hpcm.resume"
EV_HPCM_DRAIN = "hpcm.drain"
EV_HPCM_MIGRATION = "hpcm.migration"
EV_HPCM_REPARTITION = "hpcm.repartition"

# -- application lifecycle -----------------------------------------------
EV_APP_START = "app.start"
EV_APP_FINISH = "app.finish"
EV_APP_EXPAND = "app.expand"
EV_APP_SHRINK = "app.shrink"

# -- live runtime (real sockets; the HPCM analog is a pickled state) -----
EV_LIVE_SHIP = "live.state_ship"
EV_LIVE_RESUME = "live.state_resume"

# -- rescheduler façade --------------------------------------------------
EV_RESCHEDULER_DEPLOY = "rescheduler.deploy"
EV_RESCHEDULER_STOP = "rescheduler.stop"


@dataclass(frozen=True)
class EventSpec:
    """Catalogue entry for one stable event name."""

    name: str
    #: "event" (instant) or "span" (has a duration).
    kind: str
    #: Module that emits it.
    module: str
    #: Attribute keys the record carries (beyond name/t/dur/host).
    attrs: Tuple[str, ...]
    #: One-line description.
    doc: str


#: name → spec, the single source of truth for the docs diff test.
EVENTS = {
    spec.name: spec for spec in (
        EventSpec(
            EV_MONITOR_SAMPLE, "span", "repro.monitor.core",
            ("cycle", "state", "reported"),
            "one monitoring cycle: scripts run, state classified"),
        EventSpec(
            EV_MONITOR_REPORT, "event", "repro.monitor.core",
            ("state", "to"),
            "soft-state status push sent to the registry"),
        EventSpec(
            EV_RULE_FIRE, "event", "repro.rules.evaluator",
            ("rule", "rule_name", "script", "param", "value",
             "operator", "busy", "overloaded", "state"),
            "one simple rule evaluated: measured value vs thresholds"),
        EventSpec(
            EV_RULE_EVALUATE, "event", "repro.rules.evaluator",
            ("state", "rules"),
            "whole-host rule evaluation produced a state"),
        EventSpec(
            EV_REGISTRY_REGISTER, "event", "repro.registry.core",
            ("registry",),
            "a host (re-)registered with the registry/scheduler"),
        EventSpec(
            EV_REGISTRY_UPDATE, "event", "repro.registry.core",
            ("state", "registry"),
            "a soft-state push was folded into the host table"),
        EventSpec(
            EV_REGISTRY_EXPIRE, "event", "repro.registry.softstate",
            ("last_update", "lease"),
            "a host's lease lapsed; record demoted to UNAVAILABLE"),
        EventSpec(
            EV_REGISTRY_DECIDE, "span", "repro.registry.core",
            ("pid", "app", "dest", "escalated"),
            "scheduling decision: victim chosen, destination resolved"),
        EventSpec(
            EV_REGISTRY_COMMAND, "event", "repro.registry.core",
            ("pid", "dest", "decision_s"),
            "MigrateCommand sent to the source host's commander"),
        EventSpec(
            EV_COMMANDER_SIGNAL, "event", "repro.commander.core",
            ("pid", "dest", "delivered", "detail"),
            "commander delivered the migration signal to the process"),
        EventSpec(
            EV_HPCM_POLLPOINT, "event", "repro.hpcm.runtime",
            ("app", "dest", "step"),
            "migrating process reached its poll-point"),
        EventSpec(
            EV_HPCM_SPAWN, "span", "repro.hpcm.runtime",
            ("app", "dest", "warm"),
            "initialized process created on the destination (MPI-2 DPM)"),
        EventSpec(
            EV_HPCM_CAPTURE, "span", "repro.hpcm.runtime",
            ("app", "bytes"),
            "memory state pickled on the source"),
        EventSpec(
            EV_HPCM_TRANSFER, "span", "repro.hpcm.runtime",
            ("app", "dest", "bytes", "chunks"),
            "execution + memory state streamed to the destination"),
        EventSpec(
            EV_HPCM_RESUME, "event", "repro.hpcm.runtime",
            ("app", "source"),
            "execution resumed on the destination"),
        EventSpec(
            EV_HPCM_DRAIN, "span", "repro.hpcm.runtime",
            ("app", "overlap_s"),
            "residual state drained while execution already ran"),
        EventSpec(
            EV_HPCM_MIGRATION, "span", "repro.hpcm.runtime",
            ("app", "source", "dest", "succeeded", "failure"),
            "one whole migration, order to completion"),
        EventSpec(
            EV_HPCM_REPARTITION, "span", "repro.hpcm.world",
            ("app", "kind", "old_size", "new_size", "bytes",
             "succeeded", "failure"),
            "one N:M world reshape: barrier, split/merge, respawn"),
        EventSpec(
            EV_APP_START, "event", "repro.hpcm.runtime",
            ("app",),
            "managed application started"),
        EventSpec(
            EV_APP_FINISH, "event", "repro.hpcm.runtime",
            ("app", "status"),
            "managed application finished (done or failed)"),
        EventSpec(
            EV_APP_EXPAND, "event", "repro.hpcm.world",
            ("app", "added", "new_size"),
            "a world grew: fresh ranks joined at a poll-point"),
        EventSpec(
            EV_APP_SHRINK, "event", "repro.hpcm.world",
            ("app", "removed", "new_size"),
            "a world shrank: a rank retired at a poll-point"),
        EventSpec(
            EV_LIVE_SHIP, "event", "repro.live.node",
            ("task", "dest", "bytes", "ok"),
            "live node checkpointed a task and shipped its state"),
        EventSpec(
            EV_LIVE_RESUME, "event", "repro.live.node",
            ("task", "origin", "hops"),
            "live node received a state blob and resumed the task"),
        EventSpec(
            EV_RESCHEDULER_DEPLOY, "event", "repro.core.rescheduler",
            ("hosts", "policy", "mode"),
            "rescheduler deployed: monitors/commanders/registry wired"),
        EventSpec(
            EV_RESCHEDULER_STOP, "event", "repro.core.rescheduler",
            (),
            "rescheduler stop requested"),
    )
}
