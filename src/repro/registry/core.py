"""The registry/scheduler decision core (paper §3.2) — driver-agnostic.

This module is the *one* decision brain both runtimes share.  It holds
the complete §3.2 logic — soft-state bookkeeping, victim selection
(latest estimated completion, schema data-locality respected),
destination choice (the policy's strategy, first fit by default, over
FREE hosts meeting the policy's destination conditions and the
victim's resource requirements), the per-source command cooldown, and
hierarchical ``CandidateRequest`` escalation — with **zero
simulation-kernel imports**: time comes from a
:class:`~repro.entity.clock.Clock`, and everything the core wants done
to the world comes back as :mod:`~repro.entity.outbox` effects.

The simulation's :class:`~repro.registry.registry.RegistryScheduler`
pumps this core from a kernel process; the live
:class:`~repro.live.registry.LiveRegistry` pumps the *same object* from
threads over real TCP.  A behaviour exists in both runtimes or in
neither — that is the parity guarantee ``tests/live/test_parity.py``
enforces.
"""

from __future__ import annotations

import itertools
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..entity.outbox import (
    Deliver,
    Effects,
    Query,
    Send,
    Spend,
    Task,
)
from ..monitor.selector import select_victim
from ..protocol.messages import (
    Ack,
    CandidateReply,
    CandidateRequest,
    ExpandCommand,
    MigrateCommand,
    Register,
    ShrinkCommand,
    StatusUpdate,
    Unregister,
)
from ..rules.states import SystemState
from ..trace import get_tracer
from ..trace.events import (
    EV_REGISTRY_COMMAND,
    EV_REGISTRY_DECIDE,
    EV_REGISTRY_REGISTER,
    EV_REGISTRY_UPDATE,
)
from .hostmatrix import dest_mask, exclude_rows, requirements_mask
from .softstate import SoftStateTable
from .strategies import STRATEGIES

#: CPU-seconds one scheduling decision costs; the paper measures the
#: decision itself at ~0.002 s.
DEFAULT_DECISION_COST = 0.002

#: Suppress repeat commands for the same host while one migration is in
#: flight (a fresh status push arrives every cycle).
DEFAULT_COMMAND_COOLDOWN = 30.0

#: Escalation bound through the hierarchy.
MAX_HOPS = 4

#: Seconds a delegated candidate query waits for its reply.
QUERY_TIMEOUT = 10.0

#: Victims above this schema data-locality weight stay put ("a process
#: [that] involves a lot in a local data access is not to be migrated",
#: §5.3).
MAX_DATA_LOCALITY = 0.5


def _requirements_xml(req: Any) -> str:
    """Serialize duck-typed requirements for a CandidateRequest."""
    if req is None:
        return ""
    from ..schema import ResourceRequirements

    return ET.tostring(
        ResourceRequirements(
            min_memory_bytes=int(getattr(req, "min_memory_bytes", 0) or 0),
            min_disk_bytes=int(getattr(req, "min_disk_bytes", 0) or 0),
            min_cpu_speed=float(getattr(req, "min_cpu_speed", 0.0) or 0.0),
            features=tuple(getattr(req, "features", ()) or ()),
        ).to_element(),
        encoding="unicode",
    )


def _requirements_from_xml(text: str):
    if not text:
        return None
    from ..schema import ResourceRequirements

    return ResourceRequirements.from_element(ET.fromstring(text))


@dataclass(slots=True)
class Reconfigure:
    """One decision of the registry/scheduler, for the experiment logs.

    ``effect`` is ``"migrate"``, ``"expand"`` or ``"shrink"``; the
    paper's 1:1 migration is the case with a single destination (none
    when no host was eligible).  Every decision the core takes lands in
    ``RegistryCore.reconfigurations``.
    """

    at: float
    effect: str
    source: str
    dests: tuple
    pid: Optional[int]
    app: str
    reason: str
    decision_seconds: float
    escalated: bool = False

    def __post_init__(self) -> None:
        # The log outlives every message: a long-running registry keeps
        # one copy of each host, application and reason, not one per
        # decision (with ``slots``: 470 → 215 bytes a record).
        self.source = sys.intern(self.source)
        self.app = sys.intern(self.app)
        self.reason = sys.intern(self.reason)

    @property
    def dest(self) -> Optional[str]:
        """The first destination, if any — *the* destination of a
        migration."""
        return self.dests[0] if self.dests else None

    def key(self) -> tuple:
        """Clock-independent identity — what the sim/live parity tests
        compare."""
        return (self.effect, self.source, self.dests, self.pid,
                self.reason, self.escalated)


class RegistryCore:
    """The registry/scheduler's decision brain on one clock."""

    def __init__(
        self,
        clock: Any,
        label: str,
        lease: float = 35.0,
        policy: Any = None,
        rng: Any = None,
        decision_cost: float = DEFAULT_DECISION_COST,
        command_cooldown: float = DEFAULT_COMMAND_COOLDOWN,
        parent_address: Optional[str] = None,
        query_timeout: float = QUERY_TIMEOUT,
        commander_for: Optional[Callable[[str], str]] = None,
    ):
        self.clock = clock
        #: Name this registry registers under at its parent, and the
        #: marker by which parents recognize registry records ("@").
        self.label = label
        self.table = SoftStateTable(clock, lease=lease)
        self.policy = policy
        #: The policy's destination-selection strategy; first fit
        #: without a policy.
        name = getattr(policy, "strategy", "first_fit")
        if name not in STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}; choose from "
                             f"{', '.join(STRATEGIES)}")
        self.strategy = STRATEGIES[name]
        self.rng = rng
        self.decision_cost = float(decision_cost)
        self.command_cooldown = float(command_cooldown)
        self.parent_address = parent_address
        self.query_timeout = float(query_timeout)
        #: Maps an overloaded source host to its commander's address
        #: (sim: the ``commander@host`` endpoint; live: the node itself
        #: plays the commander, so the identity map is used).
        self.commander_for = commander_for or (lambda host: host)
        #: Every decision taken, in order (migrations, expands and
        #: shrinks alike).
        self.reconfigurations: List[Reconfigure] = []
        #: Numbers this registry's outgoing candidate queries.  Per
        #: instance: the id goes on the wire and simulated transfer time
        #: grows with message length, so it must not depend on what any
        #: other registry in the process has sent.
        self._req_counter = itertools.count(1)
        self._last_command: Dict[str, float] = {}
        self._deciding: set = set()
        #: OVERLOADED reports not decided on because the source was in
        #: its cooldown or already had a decision in flight.
        self.reports_guarded = 0
        #: Register messages whose static description did not parse.
        self.registers_refused = 0

    @property
    def decisions(self) -> List[Reconfigure]:
        """The migration decisions, in order — a read-only view of
        :attr:`reconfigurations`."""
        return [r for r in self.reconfigurations
                if r.effect == "migrate"]

    # -- the message interface --------------------------------------------
    def handle(self, msg: Any, sender: str) -> Effects:
        """Fold one incoming message in; returns the effects to run."""
        tracer = get_tracer()
        if isinstance(msg, Register):
            try:
                self.table.register(msg.host, msg.static_info)
            except ValueError:
                self.registers_refused += 1
                return []
            if tracer.enabled:
                tracer.event(EV_REGISTRY_REGISTER, t=self.clock.now,
                             host=msg.host, registry=self.label)
            return []
        if isinstance(msg, StatusUpdate):
            self.table.update(
                msg.host, msg.state, msg.metrics, msg.processes
            )
            if tracer.enabled:
                tracer.event(EV_REGISTRY_UPDATE, t=self.clock.now,
                             host=msg.host, state=msg.state.name,
                             registry=self.label)
            if msg.state is SystemState.OVERLOADED:
                return [Task(name=f"decide:{msg.host}",
                             gen=self._decide(msg))]
            return []
        if isinstance(msg, Unregister):
            self.table.unregister(msg.host)
            return []
        if isinstance(msg, CandidateRequest):
            return [Task(name=f"serve:{msg.req_id}",
                         gen=self._serve_candidate_request(msg, sender))]
        if isinstance(msg, CandidateReply):
            return [Deliver(req_id=msg.req_id, reply=msg)]
        if isinstance(msg, Ack):
            # The commander's receipt for a MigrateCommand.  The
            # registry acts on the *outcome* through the next status
            # push, so the receipt itself needs no effects — but it is
            # a deliberate terminal state, not a dropped message.
            return []
        # Anything else: ignored.
        return []

    # -- scheduling decision ----------------------------------------------
    def _decide(self, update: StatusUpdate):
        source = update.host
        now = self.clock.now
        last = self._last_command.get(source)
        if ((last is not None and now - last < self.command_cooldown)
                or source in self._deciding):  # one already in flight
            self.reports_guarded += 1
            return
        victim = select_victim(
            update.processes, max_data_locality=MAX_DATA_LOCALITY
        )
        if victim is None:
            return
        self._deciding.add(source)
        try:
            yield from self._decide_inner(update, source, victim)
        finally:
            self._deciding.discard(source)

    def _decide_inner(self, update: StatusUpdate, source: str, victim):
        t0 = self.clock.now
        tracer = get_tracer()
        span = tracer.begin(
            EV_REGISTRY_DECIDE, t=t0, host=source,
            pid=victim.pid, app=victim.name,
        ) if tracer.enabled else None
        if self.decision_cost > 0:
            yield Spend(self.decision_cost, label="registry-decide")
        # N:M first: a malleable policy may reshape the victim's world
        # instead of moving it; on no applicable reshape (or no hosts
        # for one) the decision falls through to the paper's 1:1 path.
        effect = self._plan_reshape(update, victim)
        dests: tuple = ()
        if effect == "shrink":
            # The retiring rank's state folds into a surviving peer's
            # world — find one from the soft-state process reports.
            peer = self._find_world_peer(victim.name, exclude=(source,))
            dests = (peer,) if peer is not None else ()
        elif effect == "expand":
            policy = self.policy
            cap = policy.world_cap(victim.max_world)
            k = min(max(1, policy.grow_step), cap - victim.world_size)
            # Child-registry records are skipped rather than delegated
            # to: an N:M reshape stays within this registry's domain
            # (see docs/malleability.md).
            dests = tuple(self._pick_destinations(
                k, exclude=(source, self.label), requirements=victim,
                children=False,
            ))
        escalated = False
        if not dests:
            effect = "migrate"
            dest, escalated = yield from self._resolve_destination(
                exclude=(source, self.label), app_name=victim.name,
                hops=0, requirements=victim,
            )
            dests = (dest,) if dest is not None else ()
        yield from self._command(effect, source, victim, dests, escalated,
                                 t0, span)

    def _command(self, effect: str, source: str, victim, dests: tuple,
                 escalated: bool, t0: float, span):
        """Record, stamp, trace and send one decision — a migration, an
        expand or a shrink alike.  A migration with no destination is
        recorded but sends nothing."""
        now = self.clock.now
        decision_seconds = now - t0
        if effect == "migrate":
            reason = f"{source} overloaded"
            trace_dest = dests[0] if dests else None
        else:
            verb = "grow" if effect == "expand" else "shrink"
            reason = f"{source} overloaded; {verb} {victim.name}"
            trace_dest = f"{effect}:{','.join(dests)}"
        if span is not None:
            span.end(t=now, dest=trace_dest, escalated=escalated)
        self.reconfigurations.append(
            Reconfigure(
                at=now,
                effect=effect,
                source=source,
                dests=dests,
                pid=victim.pid,
                app=victim.name,
                reason=reason,
                decision_seconds=decision_seconds,
                escalated=escalated,
            )
        )
        if not dests:
            return
        self._last_command[source] = now
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                EV_REGISTRY_COMMAND, t=now, host=source,
                pid=victim.pid, dest=trace_dest,
                decision_s=decision_seconds,
            )
        common = dict(host=source, pid=victim.pid, reason=reason,
                      decision_seconds=decision_seconds)
        if effect == "expand":
            command = ExpandCommand(dests=dests, **common)
        elif effect == "shrink":
            command = ShrinkCommand(dest=dests[0], **common)
        else:
            command = MigrateCommand(dest=dests[0], **common)
        yield Send(self.commander_for(source), command)

    # -- N:M reshape (docs/malleability.md) -------------------------------
    def _plan_reshape(self, update: StatusUpdate, victim) -> Optional[str]:
        """Which reshape, if any, the policy argues for on this report.

        Shrink is checked first — its triggers mark the more severe
        condition (vacate the contended host entirely); grow widens
        the world while the declared efficiency at the grown size
        clears the policy's floor.  Non-malleable victims (world
        bounds 1..1) always fall through to 1:1 migration.
        """
        policy = self.policy
        if policy is None or not getattr(policy, "enabled", True):
            return None
        if not getattr(policy, "malleable", False):
            return None
        metrics = update.metrics
        floor = policy.world_floor(victim.min_world)
        cap = policy.world_cap(victim.max_world)
        if (victim.world_size > floor
                and any(t.holds(metrics)
                        for t in policy.shrink_triggers)):
            return "shrink"
        if (victim.world_size < cap
                and any(t.holds(metrics) for t in policy.grow_triggers)):
            grown = min(victim.world_size + max(1, policy.grow_step), cap)
            if victim.efficiency_at(grown) >= policy.min_efficiency:
                return "expand"
        return None

    def _find_world_peer(self, app_name: str,
                         exclude: tuple) -> Optional[str]:
        """First host (registration order) whose process report names
        another rank of ``app_name`` — the shrink merge context."""
        matrix = self.table.matrix
        # Only rows whose last push carried a process report are listed.
        for row, processes in sorted(matrix.processes.items()):
            host = matrix.host_at(row)
            if host in exclude or "@" in host:
                continue
            if any(proc.get("name") == app_name for proc in processes):
                return host
        return None

    def _pick_destinations(self, k: int, exclude: tuple,
                           requirements: Any,
                           children: bool) -> List[str]:
        """Up to ``k`` destination hosts in preference order: the
        policy's strategy over the FREE hosts that meet the policy's
        destination conditions and own all the resources required
        (paper §3.2).

        Eligibility is a chain of boolean columns over the soft-state
        table's host-state matrix.  ``children`` says whether an ``@``
        child-registry record is an admissible pick: the 1:1 path
        delegates to it, a reshape does not.
        """
        if k <= 0:
            return []
        table = self.table
        matrix = table.matrix
        mask = table.free_mask()
        exclude_rows(matrix, mask, exclude)
        if not children:
            mask &= ~matrix.registry_mask
        if mask.any():
            mask &= dest_mask(matrix, self.policy)
        if mask.any():
            mask &= requirements_mask(matrix, requirements)
        rows = self.strategy(matrix, mask, self.rng, k)
        return [matrix.host_at(int(row)) for row in rows]

    # -- hierarchy --------------------------------------------------------
    def _resolve_destination(self, exclude: tuple, app_name: str,
                             hops: int, requirements: Any = None):
        """Find a real destination host, delegating through registries.

        Returns ``(dest_or_None, escalated)``.  Local records whose name
        contains ``@`` are child registries: the query is forwarded so
        the child answers with one of *its* hosts.  With no local
        candidate at all, the query escalates to the parent.  A query
        that has already travelled ``MAX_HOPS`` is neither forwarded
        nor escalated: a child-registry pick then answers ``None``.
        """
        picked = self._pick_destinations(1, exclude, requirements,
                                         children=True)
        dest = picked[0] if picked else None
        if dest is not None and "@" in dest:
            if hops >= MAX_HOPS:
                return None, False
            dest = yield from self._query(
                dest, app_name, exclude, hops + 1, requirements
            )
            return dest, True
        if dest is None and self.parent_address and hops < MAX_HOPS:
            dest = yield from self._query(
                self.parent_address, app_name, exclude, hops + 1,
                requirements,
            )
            return dest, True
        return dest, False

    def _query(self, address: str, app_name: str, exclude: tuple,
               hops: int, requirements: Any = None):
        """Round-trip a CandidateRequest to another registry."""
        req_id = f"{self.label}:{next(self._req_counter)}"
        reply = yield Query(
            to=address,
            request=CandidateRequest(
                host=self.label,
                app_name=app_name,
                req_id=req_id,
                hops=hops,
                exclude=tuple(exclude) + (self.label,),
                requirements_xml=_requirements_xml(requirements),
            ),
            req_id=req_id,
            timeout=self.query_timeout,
        )
        if reply is not None:
            return reply.dest
        return None

    def _serve_candidate_request(self, msg: CandidateRequest, sender: str):
        """Answer a destination query from a child or sibling registry."""
        dest, _ = yield from self._resolve_destination(
            exclude=msg.exclude, app_name=msg.app_name, hops=msg.hops,
            requirements=_requirements_from_xml(msg.requirements_xml),
        )
        yield Send(
            sender,
            CandidateReply(host=self.label, dest=dest, req_id=msg.req_id),
        )

    # -- periodic duties (pumped by the driver's scheduler) ---------------
    def poll_queries(self) -> Effects:
        """Pull model (§3.2): the registry decides when it needs the
        information and queries every registered host."""
        from ..protocol.messages import StatusQuery

        return [
            Send(f"monitor@{host}", StatusQuery(host=host))
            for host in self.table.matrix.hosts
            if "@" not in host  # children push on their own
        ]

    def parent_update(self) -> Optional[Send]:
        """Report this registry's aggregate health upward (soft state).

        The aggregate state is the *best* (least severe) state among the
        children: one free host makes the whole sub-registry a viable
        migration domain.
        """
        if not self.parent_address:
            return None
        matrix = self.table.matrix
        available = np.flatnonzero(self.table.available_mask())
        if available.size:
            state = SystemState(int(matrix.state_codes[available].min()))
            # Advertise the best offer: the least-loaded available
            # host's full metric set (the first such row; an
            # unreported load ranks as 0.0), so the parent's
            # destination conditions evaluate against a real candidate.
            load = matrix.metric_column("loadavg1")[available]
            best = available[np.argmin(np.where(np.isnan(load), 0.0, load))]
            metrics = matrix.metrics_at(int(best))
        else:
            state = SystemState.BUSY
            metrics = {}
        metrics["hosts"] = float(available.size)
        return Send(
            self.parent_address,
            StatusUpdate(host=self.label, state=state, metrics=metrics),
        )
