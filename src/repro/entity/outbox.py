"""The outbox contract between entity cores and their drivers.

The decision logic of the rescheduler's entities lives in *cores*
(:class:`~repro.registry.core.RegistryCore`,
:class:`~repro.monitor.core.MonitorCore`,
:class:`~repro.commander.core.CommanderCore`) that never import the
simulation kernel or a socket.  A core expresses everything it wants
done to the outside world as **effects**:

* ``handle(msg, sender) -> [effect, ...]`` — synchronous message
  handling returns an ordered effect list.
* A :class:`Task` effect carries a *generator* that yields further
  effects (:class:`Spend`, :class:`Send`, :class:`Query`); the driver
  pumps it, performing each effect in its own world — kernel events in
  the simulation, threads/sockets/sleeps in live mode — and sends the
  effect's result back into the generator.

Drivers must honour effect order (it is the order the sim has always
used, and the golden-trace gate holds the sim driver to it).

Effect vocabulary
-----------------

========  ==============================================================
Send      fire-and-forget protocol message to an address
Spend     consume ``seconds`` of local CPU/time (decision cost, latency)
Query     send ``request`` to ``to``, then wait up to ``timeout`` for a
          reply correlated by ``req_id``; the driver resumes the task
          generator with the reply message, or ``None`` on timeout
Deliver   resolve the pending :class:`Query` waiter for ``req_id`` with
          ``reply`` (emitted when the correlated response arrives)
Task      run ``gen`` concurrently under ``name`` (a scheduling
          decision, a delegated candidate query, ...)
========  ==============================================================

Every registry decision — a 1:1 migration, an expand or a shrink
(docs/malleability.md) — leaves the core as one ``Send`` from one tail,
``RegistryCore._command``: the intent travels in the typed command
(``MigrateCommand``, ``ExpandCommand``, ``ShrinkCommand``) and in
``Reconfigure.effect``, so drivers need no reshape-specific dispatch.
Each driver's dispatch ends in ``TypeError`` on an effect it does not
know, and ``tests/registry/test_effect_drivers.py`` drives every member
of ``Effect`` through both drivers, so an effect added here fails
tier-1 until each driver performs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Union


@dataclass(frozen=True)
class Send:
    """Fire-and-forget message; losses are tolerated (soft state)."""

    to: str
    msg: Any


@dataclass(frozen=True)
class Spend:
    """Consume local CPU/time — the cost of thinking."""

    seconds: float
    label: str = ""


@dataclass(frozen=True)
class Query:
    """Round-trip request: send, then wait for the correlated reply."""

    to: str
    request: Any
    req_id: str
    timeout: float


@dataclass(frozen=True)
class Deliver:
    """A correlated reply arrived; wake the matching Query waiter."""

    req_id: str
    reply: Any


@dataclass(frozen=True)
class Task:
    """Run this effect generator concurrently with the message pump."""

    name: str
    gen: Generator


Effect = Union[Send, Spend, Query, Deliver, Task]
Effects = List[Effect]
