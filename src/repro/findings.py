"""Findings about the configuration inputs, and the refusal they cause.

The paper's three configuration inputs — §4 rule files, §5.3 migration
policies and the §3.3 XML application schema — are each checked once,
by the code that loads them: ``repro.rules`` (``parser``, ``model``),
:class:`~repro.core.policy.MigrationPolicy` and
:class:`~repro.schema.ApplicationSchema`.  A check reports a
:class:`Diagnostic` with a stable code; the loader raises
:class:`ConfigError`, carrying every finding, when any of them is an
error.  ``repro lint`` reports the same findings with the file they
came from, warnings too (docs/linting.md).

This module imports nothing from the package, so every layer can.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar


class Severity(str, Enum):
    """How bad a finding is; orders error > warning > info."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One finding with a stable, documented code."""

    code: str  # e.g. "R001"
    severity: Severity
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    #: The rule/policy/schema the finding is about, when nameable.
    obj: Optional[str] = None

    def as_dict(self) -> dict:
        """Stable JSON form (key order fixed, all keys always present)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "file": self.file,
            "line": self.line,
            "object": self.obj,
            "message": self.message,
        }

    def render(self) -> str:
        location = self.file or "<input>"
        if self.line is not None:
            location += f":{self.line}"
        subject = f" [{self.obj}]" if self.obj else ""
        return (
            f"{location}: {self.severity.value} {self.code}: "
            f"{self.message}{subject}"
        )


def error(code: str, message: str, **where) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, **where)


def warning(code: str, message: str, **where) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, **where)


class ConfigError(ValueError):
    """A configuration input the runtime refuses: at least one finding
    is an error.  :attr:`findings` holds every finding, warnings
    included."""

    def __init__(self, findings: Sequence[Diagnostic]):
        super().__init__(tuple(findings))
        self.findings: Tuple[Diagnostic, ...] = tuple(findings)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.findings if d.severity is Severity.ERROR]

    def __str__(self) -> str:
        return "; ".join(
            (f"line {d.line}: " if d.line else "")
            + f"{d.code}: {d.message}" + (f" [{d.obj}]" if d.obj else "")
            for d in self.errors
        )


class CellArgumentError(ValueError):
    """An experiment argument outside the range its cell can run
    (``repro run fig5 --duration 300``: no settle window is left).
    Raised before anything is simulated; the CLI refuses it like a
    :class:`ConfigError`, in one ``repro: …`` line."""


def refuse_errors(findings: Sequence[Diagnostic]) -> None:
    """Raise :class:`ConfigError` when any finding is an error."""
    if any(d.severity is Severity.ERROR for d in findings):
        raise ConfigError(findings)


T = TypeVar("T")


def try_build(build: Callable[[], T]) -> Tuple[Optional[T], List[Diagnostic]]:
    """Build a record: the record and its findings (warnings only), or
    ``None`` and the findings that refused it."""
    try:
        record = build()
    except ConfigError as exc:
        return None, list(exc.findings)
    return record, record.findings()
