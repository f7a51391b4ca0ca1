"""The simulation driver for the registry/scheduler entity (§3.2).

All decision logic — victim selection, first fit over policy
destination conditions, cooldown, hierarchical escalation — lives in
the driver-agnostic :class:`~repro.registry.core.RegistryCore`.  This
module is the *sim driver*: a kernel process that pumps the core's
inbox, runs its :class:`~repro.entity.outbox.Task` generators as
concurrent kernel processes, and maps each effect onto the simulated
world (``Spend`` → CPU execution, ``Send`` → the simulated network,
``Query`` → a kernel event raced against a timeout).  The live runtime
(:mod:`repro.live.registry`) pumps the same core over real sockets.
"""

from __future__ import annotations

from typing import Any, Optional

from ..entity.outbox import Deliver, Query, Send, Spend, Task
from ..protocol.transport import Endpoint, EndpointRegistry
from .core import (
    DEFAULT_COMMAND_COOLDOWN,
    DEFAULT_DECISION_COST,
    DEFAULT_LEASE,
    MAX_HOPS,
    Reconfigure,
    RegistryCore,
    _requirements_from_xml,
    _requirements_xml,
)

__all__ = [
    "DEFAULT_COMMAND_COOLDOWN",
    "DEFAULT_DECISION_COST",
    "DEFAULT_LEASE",
    "MAX_HOPS",
    "Reconfigure",
    "RegistryScheduler",
]


class RegistryScheduler:
    """Registry/scheduler entity on one simulated host."""

    def __init__(
        self,
        host: Any,
        directory: EndpointRegistry,
        name: str = "registry",
        lease: float = DEFAULT_LEASE,
        policy: Any = None,
        rng: Any = None,
        command_cooldown: float = DEFAULT_COMMAND_COOLDOWN,
        parent_address: Optional[str] = None,
        mode: str = "push",
        poll_interval: float = 10.0,
    ):
        if mode not in ("push", "pull"):
            raise ValueError(f"mode must be push or pull, got {mode!r}")
        self.host = host
        self.env = host.env
        self.endpoint = Endpoint(host, directory, name=name)
        #: Using the endpoint address as the label lets a parent route
        #: delegated candidate queries straight to the child ("@" marks
        #: registry records).
        self.core = RegistryCore(
            clock=self.env,
            label=f"{name}@{host.name}",
            lease=lease,
            policy=policy,
            rng=rng,
            command_cooldown=command_cooldown,
            parent_address=parent_address,
            commander_for=lambda source: f"commander@{source}",
        )
        self._pending_replies: dict = {}
        self._stopped = False
        self.mode = mode
        self.poll_interval = float(poll_interval)
        self.proc = self.env.process(
            self._run(), name=f"registry:{host.name}"
        )
        if mode == "pull":
            self.env.process(self._poll_loop(),
                             name=f"registry-poll:{host.name}")
        if parent_address:
            self.env.process(self._push_to_parent(),
                             name=f"registry-up:{host.name}")

    # -- the core's state, exposed for experiments and tests ------------
    @property
    def address(self) -> str:
        return self.endpoint.address

    @property
    def table(self):
        return self.core.table

    @property
    def decisions(self):
        return self.core.decisions

    @property
    def policy(self):
        return self.core.policy

    @property
    def label(self) -> str:
        return self.core.label

    @property
    def parent_address(self):
        return self.core.parent_address

    def stop(self) -> None:
        self._stopped = True

    # -- effect interpretation ------------------------------------------
    def _perform(self, effects) -> None:
        """Run the synchronous effects of one handled message."""
        for effect in effects:
            if isinstance(effect, Send):
                self.endpoint.send_and_forget(effect.to, effect.msg)
            elif isinstance(effect, Task):
                self.env.process(self._pump(effect.gen), name=effect.name)
            elif isinstance(effect, Deliver):
                waiter = self._pending_replies.pop(effect.req_id, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(effect.reply)
            else:
                raise TypeError(f"unknown effect {effect!r}")

    def _pump(self, gen):
        """Drive one core task generator as a kernel process."""
        value = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration:
                return
            value = None
            if isinstance(effect, Spend):
                yield self.host.cpu.execute(effect.seconds,
                                            label=effect.label)
            elif isinstance(effect, Send):
                self.endpoint.send_and_forget(effect.to, effect.msg)
            elif isinstance(effect, Query):
                # Order matters for determinism and matches the
                # pre-refactor code: waiter first, then the request on
                # the wire, then the timeout, then the race.
                waiter = self.env.event()
                self._pending_replies[effect.req_id] = waiter
                self.endpoint.send_and_forget(effect.to, effect.request)
                timeout = self.env.timeout(effect.timeout)
                yield self.env.any_of([waiter, timeout])
                self._pending_replies.pop(effect.req_id, None)
                value = waiter.value if waiter.triggered else None
            else:
                raise TypeError(f"unknown effect {effect!r}")

    # -- main loop ------------------------------------------------------
    def _run(self):
        # Decisions and delegated queries run as concurrent processes:
        # their replies arrive through this very inbox, so the pump must
        # never block on them.
        while not self._stopped:
            msg, sender, ts = yield self.endpoint.recv()
            self._perform(self.core.handle(msg, sender))

    def _poll_loop(self):
        """Pull model (§3.2): query every registered host on a timer."""
        while not self._stopped:
            yield self.env.timeout(self.poll_interval)
            self._perform(self.core.poll_queries())

    def _push_to_parent(self):
        """Ship the core's aggregate soft-state report upward."""
        interval = 10.0
        while not self._stopped:
            yield self.env.timeout(interval)
            send = self.core.parent_update()
            if send is not None:
                self.endpoint.send_and_forget(send.to, send.msg)
