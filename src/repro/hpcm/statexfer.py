"""State capture, chunking and restoration.

Memory state is captured by **really pickling** the application's state
object; the pickle's byte length is what the simulated network moves,
so migration cost scales with genuine application state size.  The
byte stream is cut into chunks so that restoration can overlap resumed
execution (HPCM's data collection/restoration mechanism: "the
initialized process resumes execution in parallel with the data
collection and restoration", paper §5.2).

A migration holds three copies of the state: the source's object, one
pickle and the restored object.  The chunks are views of the pickle,
and the arrived stream is checked against it in place.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Iterable, List

from .errors import StateCaptureError


def capture(state: Any) -> bytes:
    """Serialize application state (the migration 'memory state')."""
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise StateCaptureError(
            f"application state is not picklable: {exc}"
        ) from exc


def restore(blob: bytes) -> Any:
    """Rebuild the state object from its serialized form."""
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise StateCaptureError(
            f"application state could not be restored: {exc}"
        ) from exc


def chunk(blob: bytes, n_chunks: int) -> List[memoryview]:
    """Split ``blob`` into at most ``n_chunks`` contiguous pieces.

    The pieces are views of ``blob``, not copies.  Returns at least one
    chunk (possibly empty for an empty blob) so the transfer protocol
    always has a data phase.
    """
    if n_chunks < 1:
        raise ValueError("need at least one chunk")
    view = memoryview(blob)
    if not blob:
        return [view]
    size = math.ceil(len(blob) / n_chunks)
    return [view[i:i + size] for i in range(0, len(blob), size)]


def intact(pieces: Iterable[Any], blob: bytes) -> bool:
    """Whether ``pieces``, laid end to end, are exactly ``blob``.

    Each piece is compared in place at its offset (``bytes.startswith``
    is one ``memcmp``), so no piece is copied and no joined stream is
    built.
    """
    offset = 0
    for piece in pieces:
        if not blob.startswith(piece, offset):
            return False
        offset += len(piece)
    return offset == len(blob)
