"""HPCM-style heterogeneous process-migration middleware.

Applications keep all live state in one picklable object and advance in
steps (the gaps are poll-points); the runtime captures, streams and
restores that state to move a running process between hosts, re-pointing
its MPI rank and mailbox, with restoration overlapping resumed
execution.
"""

from .app import MigratableApp
from .checkpoint import (
    CheckpointError,
    CheckpointingApp,
    CheckpointMeta,
    read_checkpoint,
    write_checkpoint,
)
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
    launch,
    launch_world,
)
from .statexfer import capture, chunk, join, restore
from .world import HpcmWorld, launch_malleable_world

__all__ = [
    "AppContext",
    "CheckpointError",
    "CheckpointingApp",
    "CheckpointMeta",
    "read_checkpoint",
    "write_checkpoint",
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
    "join",
    "launch",
    "launch_malleable_world",
    "launch_world",
    "restore",
]
