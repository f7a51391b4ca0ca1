"""XML-over-(simulated)-TCP transport.

Each rescheduler entity owns an :class:`Endpoint` on its host.  Sending
a message encodes it to real XML bytes, moves those bytes through the
simulated network (so Figure 6's communication-overhead measurements
see genuine protocol traffic), and decodes on arrival — a full
serialization round-trip every hop, which catches anything that would
not survive a real wire.
"""

from __future__ import annotations

from typing import Any, Dict

from ..sim.resources import Store
from . import messages


class EndpointRegistry:
    """Name → endpoint directory (the DNS of the rescheduler mesh)."""

    def __init__(self):
        self._endpoints: Dict[str, "Endpoint"] = {}

    def register(self, endpoint: "Endpoint") -> None:
        if endpoint.address in self._endpoints:
            raise ValueError(f"address {endpoint.address!r} already bound")
        self._endpoints[endpoint.address] = endpoint

    def lookup(self, address: str) -> "Endpoint":
        try:
            return self._endpoints[address]
        except KeyError:
            raise KeyError(f"no endpoint bound at {address!r}") from None


class Endpoint:
    """One entity's mailbox + sender on a host."""

    def __init__(
        self,
        host: Any,
        directory: EndpointRegistry,
        name: str,
    ):
        self.host = host
        self.env = host.env
        self.network = host.network
        self.name = name
        self.address = f"{name}@{host.name}"
        self.inbox = Store(self.env)
        self.bytes_out = 0
        self.bytes_in = 0
        self.directory = directory
        directory.register(self)

    def send(self, dest_address: str, msg) -> Any:
        """Send ``msg``; returns an event completing on delivery.

        Delivery failures (dest host down) fail the event — callers
        treat the message as lost, soft-state style.
        """
        dest = self.directory.lookup(dest_address)
        data = messages.encode(msg, sender=self.address,
                               timestamp=self.env.now)
        self.bytes_out += len(data)

        def _deliver():
            if dest.host is self.host:
                yield self.env.timeout(self.network.latency)
            else:
                yield self.network.transfer(
                    self.host.name, dest.host.name, len(data),
                    label=f"proto:{msg.TYPE}",
                )
            decoded, sender, ts = messages.decode(data)
            dest.bytes_in += len(data)
            yield dest.inbox.put((decoded, sender, ts))
            return True

        return self.env.process(_deliver(), name=f"send:{msg.TYPE}")

    def send_and_forget(self, dest_address: str, msg) -> None:
        """Fire-and-forget send; delivery failures are swallowed
        (lost datagram — the soft-state protocol tolerates it)."""
        proc = self.send(dest_address, msg)

        def _swallow(event):
            if not event._ok:
                event._defused = True

        proc.callbacks.append(_swallow)

    def recv(self):
        """Event yielding the next (message, sender, timestamp)."""
        return self.inbox.get()
