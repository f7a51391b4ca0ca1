"""Custom XML-over-TCP protocol between rescheduler entities.

"We combine a custom XML based protocol with TCP/IP sockets to form
the communication subsystem of the rescheduler" (paper §3.3): message
types in :mod:`~repro.protocol.messages`, simulated-TCP endpoints in
:mod:`~repro.protocol.transport`, and the same messages over real
sockets in :mod:`repro.live.transport`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "messages": (
        "Ack", "CandidateReply", "CandidateRequest", "ExpandCommand",
        "MESSAGE_TYPES", "MigrateCommand", "ProtocolError", "Register",
        "ShrinkCommand", "StatusQuery", "StatusUpdate", "Unregister",
        "decode", "encode",
    ),
    "transport": ("Endpoint", "EndpointRegistry"),
})
