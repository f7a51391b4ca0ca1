"""Live registry/scheduler: the decision entity over real sockets.

The paper's registry/scheduler is the "global system-state manager
and decision maker" whose registration "is based on a soft-state
mechanism" (§3.2).  This driver pumps the *same*
:class:`~repro.registry.core.RegistryCore` the simulation uses — the
soft-state table, victim selection, first fit over policy destination
conditions, the command cooldown, and hierarchical
``CandidateRequest`` escalation are one code path in both runtimes —
from real threads over real TCP.  A behaviour exists in both runtimes
or in neither; ``tests/live/test_parity.py`` holds that line.

Threading model: the receive loop folds messages into the core under
one lock; each decision the core spawns (a
:class:`~repro.entity.outbox.Task` effect) runs on its own thread,
advancing the core's generator under the same lock but executing the
blocking effects — ``Spend`` → sleep, ``Query`` → bounded wait for the
matching ``CandidateReply`` — outside it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, List, Optional

from ..entity.clock import WallClock
from ..entity.outbox import Deliver, Query, Send, Spend, Task
from ..registry.core import Reconfigure, RegistryCore
from ..registry.strategies import first_fit
from .transport import LiveEndpoint

__all__ = ["LiveRegistry"]


class LiveRegistry:
    """Registry/scheduler thread for a live deployment."""

    def __init__(
        self,
        policy: Any = None,
        lease: float = 5.0,
        command_cooldown: float = 2.0,
        strategy=first_fit,
        port: int = 0,
        name: str = "registry",
        parent_address: Optional[str] = None,
        decision_cost: float = 0.0,
        query_timeout: float = 5.0,
        max_data_locality: float = 0.5,
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
            strategy=strategy,
            rng=rng,
            decision_cost=decision_cost,
            command_cooldown=command_cooldown,
            parent_address=parent_address,
            max_data_locality=max_data_locality,
            query_timeout=query_timeout,
            # The overloaded node itself plays the commander role.
            commander_for=lambda source: source,
        )
        self._pending_replies: dict = {}
        self._reply_lock = threading.Lock()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"live-registry:{name}", daemon=True
        )
        self._thread.start()
        self._parent_thread = None
        if parent_address:
            self._parent_thread = threading.Thread(
                target=self._parent_loop, name=f"live-registry-up:{name}",
                daemon=True,
            )
            self._parent_thread.start()

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
    def decisions(self) -> List[Reconfigure]:
        return self.core.decisions

    @property
    def reconfigurations(self):
        return self.core.reconfigurations

    @property
    def policy(self):
        return self.core.policy

    @property
    def parent_address(self):
        return self.core.parent_address

    def stop(self) -> None:
        self._stop.set()
        self.endpoint.close()

    # -- effect interpretation ------------------------------------------
    def _perform(self, effects) -> None:
        """Run the synchronous effects of one handled message."""
        for effect in effects:
            if isinstance(effect, Send):
                self._send(effect.to, effect.msg)
            elif isinstance(effect, Task):
                threading.Thread(
                    target=self._pump, args=(effect.gen,),
                    name=effect.name, daemon=True,
                ).start()
            elif isinstance(effect, Deliver):
                with self._reply_lock:
                    waiter = self._pending_replies.pop(effect.req_id, None)
                if waiter is not None:
                    try:
                        waiter.put_nowait(effect.reply)
                    except queue.Full:
                        pass

    def _pump(self, gen) -> None:
        """Drive one core task generator on this thread."""
        value = None
        while not self._stop.is_set():
            try:
                with self._lock:
                    effect = gen.send(value)
            except StopIteration:
                return
            value = None
            if isinstance(effect, Spend):
                time.sleep(effect.seconds)
            elif isinstance(effect, Send):
                self._send(effect.to, effect.msg)
            elif isinstance(effect, Query):
                waiter: "queue.Queue" = queue.Queue(maxsize=1)
                with self._reply_lock:
                    self._pending_replies[effect.req_id] = waiter
                self._send(effect.to, effect.request)
                try:
                    value = waiter.get(timeout=effect.timeout)
                except queue.Empty:
                    value = None
                with self._reply_lock:
                    self._pending_replies.pop(effect.req_id, None)

    def _send(self, to: str, msg: Any) -> None:
        self.endpoint.send_message(to, msg, timestamp=time.time())

    # -- main loop ------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            item = self.endpoint.recv(timeout=0.1)
            if item is None:
                continue
            kind, payload = item
            if kind != "msg":
                continue
            msg, sender, ts = payload
            with self._lock:
                effects = self.core.handle(msg, sender)
            self._perform(effects)

    def _parent_loop(self) -> None:
        """Ship the core's aggregate soft-state report upward."""
        while not self._stop.wait(1.0):
            with self._lock:
                send = self.core.parent_update()
            if send is not None:
                self._send(send.to, send.msg)
