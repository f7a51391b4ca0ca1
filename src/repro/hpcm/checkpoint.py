"""Checkpoint/restart on top of the poll-point contract.

Paper §1: "Though the system is implemented on top of the MPI and HPCM
middleware, it is general and can be extended for checkpointing-based
or mobile computing systems."  The same state-capture contract that
powers migration powers disk checkpoints: at any poll-point the
complete application state pickles to a file; a later run restarts
from it — surviving a crash of the whole process (or simulator).

Checkpoint files are self-describing: a JSON header (app name, step
count, schema XML, integrity digest) followed by the state pickle.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Any, Optional

from ..schema import ApplicationSchema
from . import statexfer
from .app import MigratableApp
from .errors import HpcmError

_MAGIC = b"HPCMCKPT"
_VERSION = 1


class CheckpointError(HpcmError):
    """Unreadable, corrupt or mismatched checkpoint file."""


@dataclass(frozen=True)
class CheckpointMeta:
    """Header of a checkpoint file."""

    app_name: str
    step_count: int
    sim_time: float
    schema_xml: str
    digest: str

    def as_dict(self) -> dict:
        return {
            "app_name": self.app_name,
            "step_count": self.step_count,
            "sim_time": self.sim_time,
            "schema_xml": self.schema_xml,
            "digest": self.digest,
        }


def write_checkpoint(
    path: str,
    app_name: str,
    state: Any,
    step_count: int,
    sim_time: float,
    schema: Optional[ApplicationSchema] = None,
) -> CheckpointMeta:
    """Capture ``state`` to ``path`` atomically; returns the header."""
    blob = statexfer.capture(state)
    meta = CheckpointMeta(
        app_name=app_name,
        step_count=int(step_count),
        sim_time=float(sim_time),
        schema_xml=schema.to_xml() if schema is not None else "",
        digest=hashlib.sha256(blob).hexdigest(),
    )
    header = json.dumps(meta.as_dict()).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">II", _VERSION, len(header)))
        fh.write(header)
        fh.write(blob)
    os.replace(tmp, path)  # atomic: a crash never leaves a torn file
    return meta


def read_checkpoint(path: str) -> tuple:
    """Load ``(meta, state)`` from a checkpoint file.

    Verifies magic, version and the state digest; raises
    :class:`CheckpointError` on any mismatch.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path!r}: {exc}") from exc
    if not data.startswith(_MAGIC):
        raise CheckpointError(f"{path!r} is not a checkpoint file")
    offset = len(_MAGIC)
    try:
        version, header_len = struct.unpack_from(">II", data, offset)
    except struct.error as exc:
        raise CheckpointError(f"{path!r}: truncated header") from exc
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset += 8
    try:
        header = json.loads(data[offset:offset + header_len])
        meta = CheckpointMeta(**header)
    except (ValueError, TypeError) as exc:
        raise CheckpointError("corrupt checkpoint header") from exc
    # A view, so the state is not copied out of the file's bytes.
    blob = memoryview(data)[offset + header_len:]
    if hashlib.sha256(blob).hexdigest() != meta.digest:
        raise CheckpointError(f"{path!r}: state digest mismatch")
    return meta, statexfer.restore(blob)


class CheckpointingApp(MigratableApp):
    """Wrap any migratable app with periodic disk checkpoints.

    Every ``every`` steps (poll-points) the wrapped application's state
    is written to ``path``.  :meth:`resume_params` rebuilds the launch
    parameters of a fresh run from the latest checkpoint.
    """

    def __init__(self, inner: MigratableApp, path: str, every: int = 1):
        if every < 1:
            raise ValueError("checkpoint period must be >= 1 step")
        self.inner = inner
        self.path = path
        self.every = int(every)
        self.name = f"{inner.name}+ckpt"
        self._steps_since = 0
        self.checkpoints_written = 0

    def create_state(self, params: dict, rng: Any) -> Any:
        if params.get("_resume_from"):
            meta, state = read_checkpoint(params["_resume_from"])
            expected = f"{self.inner.name}+ckpt"
            if meta.app_name not in (self.inner.name, expected, self.name):
                raise CheckpointError(
                    f"checkpoint belongs to {meta.app_name!r}, "
                    f"not {self.inner.name!r}"
                )
            return state
        return self.inner.create_state(params, rng)

    def run_step(self, state: Any, ctx: Any):
        more = yield from self.inner.run_step(state, ctx)
        self._steps_since += 1
        if self._steps_since >= self.every or not more:
            write_checkpoint(
                self.path,
                self.name,
                state,
                step_count=self._steps_since,
                sim_time=ctx.now,
            )
            self.checkpoints_written += 1
            self._steps_since = 0
        return more

    def finalize(self, state: Any) -> Any:
        return self.inner.finalize(state)

    def default_schema(self) -> ApplicationSchema:
        return self.inner.default_schema()

    @staticmethod
    def resume_params(path: str, base_params: Optional[dict] = None) -> dict:
        """Launch parameters resuming from the checkpoint at ``path``."""
        params = dict(base_params or {})
        params["_resume_from"] = path
        return params
