"""HPCM middleware errors."""

from __future__ import annotations


class HpcmError(Exception):
    """Base class for migration-middleware failures."""


class StateCaptureError(HpcmError):
    """The application state could not be serialized at a poll-point."""


class RepartitionError(HpcmError):
    """A world reshape could not split/merge the application state; the
    world keeps its old size and every rank resumes unchanged."""


class WorldAborted(HpcmError):
    """Another rank of the world failed, so this one ends failed too:
    MPI's default, a job that loses a rank aborts."""
