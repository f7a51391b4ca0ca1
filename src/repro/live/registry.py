"""Live registry/scheduler: the decision entity over real sockets.

The paper's registry/scheduler is the "global system-state manager
and decision maker" whose registration "is based on a soft-state
mechanism" (§3.2).  This driver pumps the *same*
:class:`~repro.registry.core.RegistryCore` the simulation uses — the
soft-state table, victim selection, first fit over policy destination
conditions, the command cooldown, and hierarchical
``CandidateRequest`` escalation are one code path in both runtimes —
over real TCP.  A behaviour exists in both runtimes
or in neither; ``tests/live/test_parity.py`` holds that line.

Threading model: none of its own.  The endpoint's loop thread hands
every decoded frame to :meth:`LiveRegistry._on_item`, which advances
the core one step — ``handle`` → effects, each
:class:`~repro.entity.outbox.Task` generator stepped inline until it
finishes or parks: ``Spend`` as a timer, ``Query`` as a pending reply
with its timeout.  A decision that neither spends nor queries is over
before the next frame is read.
"""

from __future__ import annotations

import time
from typing import Any, Generator, Optional

from ..entity.clock import WallClock
from ..entity.outbox import Deliver, Effects, Query, Send, Spend, Task
from ..registry.core import Migrations, RegistryCore
from .transport import LiveEndpoint

__all__ = ["LiveRegistry"]

#: Seconds between aggregate soft-state reports to a parent registry.
PARENT_UPDATE_S = 1.0

#: A live decision's cost is the real time it takes: no simulated spend.
DECISION_COST_S = 0.0

#: Seconds a delegated candidate query waits for its reply.
QUERY_TIMEOUT_S = 5.0


def _each(effects: Effects) -> Generator:
    """The effects of one handled message, as a task that never waits."""
    yield from effects


class LiveRegistry:
    """Registry/scheduler for a live deployment, run by its endpoint's
    loop thread."""

    def __init__(
        self,
        policy: Any = None,
        lease: float = 5.0,
        command_cooldown: float = 2.0,
        port: int = 0,
        name: str = "registry",
        parent_address: Optional[str] = None,
        rng: Any = None,
    ):
        self.endpoint = LiveEndpoint(name, port=port)
        #: ``name@host:port`` — parents route delegated candidate
        #: queries to the socket part; the "@" marks registry records.
        self.core = RegistryCore(
            clock=WallClock(),
            label=f"{name}@{self.endpoint.address}",
            lease=lease,
            policy=policy,
            rng=rng,
            decision_cost=DECISION_COST_S,
            command_cooldown=command_cooldown,
            parent_address=parent_address,
            query_timeout=QUERY_TIMEOUT_S,
            # The overloaded node itself plays the commander role.
            commander_for=lambda source: source,
        )
        #: ``req_id`` → the task generator parked on that ``Query``.
        self._pending: dict = {}
        self.endpoint.serve(self._on_item)
        if parent_address:
            self.endpoint.call_later(PARENT_UPDATE_S, self._parent_update)

    # -- the core's state, exposed for experiments and tests ------------
    @property
    def address(self) -> str:
        return self.endpoint.address

    @property
    def label(self) -> str:
        return self.core.label

    @property
    def table(self):
        return self.core.table

    @property
    def decisions(self) -> Migrations:
        return self.core.decisions

    @property
    def policy(self):
        return self.core.policy

    @property
    def parent_address(self):
        return self.core.parent_address

    @property
    def reports_guarded(self) -> int:
        """OVERLOADED reports that met the in-flight guard or the
        cooldown and were therefore not decided on."""
        return self.core.reports_guarded

    def stop(self) -> None:
        self.endpoint.close()

    # -- effect interpretation ------------------------------------------
    def _advance(self, gen: Generator, value: Any = None) -> None:
        """Step one task generator until it finishes or parks."""
        while True:
            try:
                effect = gen.send(value)
            except StopIteration:
                return
            value = None
            if isinstance(effect, Send):
                self._send(effect.to, effect.msg)
            elif isinstance(effect, Task):
                self._advance(effect.gen)
            elif isinstance(effect, Deliver):
                self._resume(effect.req_id, effect.reply)
            elif isinstance(effect, Spend):
                self.endpoint.call_later(effect.seconds, self._advance, gen)
                return
            elif isinstance(effect, Query):
                self._pending[effect.req_id] = gen
                self._send(effect.to, effect.request)
                self.endpoint.call_later(
                    effect.timeout, self._resume, effect.req_id, None)
                return
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _resume(self, req_id: str, reply: Any) -> None:
        """A ``Query`` ends, by its reply or (``None``) its timeout —
        whichever comes first finds the task still parked."""
        gen = self._pending.pop(req_id, None)
        if gen is not None:
            self._advance(gen, reply)

    def _send(self, to: str, msg: Any) -> None:
        self.endpoint.send_message(to, msg, timestamp=time.time())

    # -- on the endpoint's loop -----------------------------------------
    def _on_item(self, item) -> None:
        kind, payload = item
        if kind == "msg":
            msg, sender, _ts = payload
            effects = self.core.handle(msg, sender)
            if effects:
                self._advance(_each(effects))

    def _parent_update(self) -> None:
        """Ship the core's aggregate soft-state report upward."""
        send = self.core.parent_update()
        if send is not None:
            self._send(send.to, send.msg)
        self.endpoint.call_later(PARENT_UPDATE_S, self._parent_update)
