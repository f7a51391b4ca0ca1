"""Simulated MPI-2 runtime.

Communicators with blocking point-to-point and the binomial-tree
collectives the workloads use (bcast, reduce, allreduce, gather), plus
the MPI-2 dynamic process management (spawn, with an
intercommunicator to the children) that the paper's migration protocol
relies on.
All payloads are real Python objects sized by their actual serialized
length.
"""

from .comm import Comm, Intercomm, SpawnedContext
from .errors import DeadProcessError, MpiError, RankError, SpawnError
from .group import CommGroup
from .message import ANY_SOURCE, ANY_TAG, Message
from .process import MpiProcess
from .runtime import DEFAULT_LOCAL_LATENCY, DEFAULT_SPAWN_LATENCY, MpiRuntime
from .sizeof import ENVELOPE_BYTES, message_nbytes, payload_nbytes

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommGroup",
    "DEFAULT_LOCAL_LATENCY",
    "DEFAULT_SPAWN_LATENCY",
    "DeadProcessError",
    "ENVELOPE_BYTES",
    "Intercomm",
    "Message",
    "MpiError",
    "MpiProcess",
    "MpiRuntime",
    "RankError",
    "SpawnedContext",
    "SpawnError",
    "message_nbytes",
    "payload_nbytes",
]
