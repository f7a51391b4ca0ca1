"""HPCM-style heterogeneous process-migration middleware.

Applications keep all live state in one picklable object and advance in
steps (the gaps are poll-points); the runtime captures, streams and
restores that state to move a running process between hosts, re-pointing
its MPI rank and mailbox, with restoration overlapping resumed
execution.  Every application runs as a world of ranks
(:class:`HpcmWorld`), a single-process one as a world of one.
"""

from .app import MigratableApp
from .context import AppContext
from .errors import (
    HpcmError,
    RepartitionError,
    StateCaptureError,
)
from .record import (
    MigrationOrder,
    MigrationRecord,
    ReconfigRecord,
    ReconfigureOrder,
)
from .runtime import (
    DEFAULT_CHUNKS,
    DEFAULT_RESUME_FRACTION,
    DEFAULT_SERIALIZE_RATE,
    HpcmRuntime,
)
from .statexfer import capture, chunk, restore
from .world import HpcmWorld, launch, launch_world

__all__ = [
    "AppContext",
    "DEFAULT_CHUNKS",
    "DEFAULT_RESUME_FRACTION",
    "DEFAULT_SERIALIZE_RATE",
    "HpcmError",
    "HpcmRuntime",
    "HpcmWorld",
    "MigratableApp",
    "MigrationOrder",
    "MigrationRecord",
    "ReconfigRecord",
    "ReconfigureOrder",
    "RepartitionError",
    "StateCaptureError",
    "capture",
    "chunk",
    "launch",
    "launch_world",
    "restore",
]
