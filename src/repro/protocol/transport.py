"""XML-over-(simulated)-TCP transport.

Each rescheduler entity owns an :class:`Endpoint` on its host.  Sending
a message encodes it to real XML bytes, moves those bytes through the
simulated network (so Figure 6's communication-overhead measurements
see genuine protocol traffic), and decodes on arrival — a full
serialization round-trip every hop, which catches anything that would
not survive a real wire.  A send is a callback chain, not a process:
its hop (the transfer, or a same-host latency timeout) decodes into
the receiver's inbox.
"""

from __future__ import annotations

from typing import Any, Dict

from ..sim.events import Event
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
        """Send ``msg``; returns the hop event, completing on arrival.

        Delivery failures (dest host down) fail the event — callers
        treat the message as lost, soft-state style.  Bytes that do not
        decode are a lost message too: they never reach the inbox.
        """
        dest = self.directory.lookup(dest_address)
        data = messages.encode(msg, sender=self.address,
                               timestamp=self.env.now)
        self.bytes_out += len(data)
        if dest.host is self.host:
            hop = self.env.timeout(self.network.latency)
        else:
            hop = self.network.transfer(
                self.host.name, dest.host.name, len(data),
                label=f"proto:{msg.TYPE}",
            )

        def _arrived(event) -> None:
            if not event._ok:
                return
            try:
                item = messages.decode(data)
            except messages.ProtocolError:
                return
            dest.bytes_in += len(data)
            dest.inbox.put(item)

        hop.callbacks.append(_arrived)
        return hop

    def send_and_forget(self, dest_address: str, msg) -> None:
        """Fire-and-forget send; delivery failures are swallowed
        (lost datagram — the soft-state protocol tolerates it)."""
        self.send(dest_address, msg).callbacks.append(Event.defuse)

    def recv(self):
        """Event yielding the next (message, sender, timestamp)."""
        return self.inbox.get()
