"""System-state lattice (paper Table 1).

Three named states order by severity::

    free (0)  <  busy (1)  <  overloaded (2)

plus ``unavailable`` for hosts whose soft-state lease expired.  The
paper classifies "with a fine granularity using a series of numbers to
support more complex migration rules": a complex rule computes a
numeric severity level (a weighted sum of its rules' levels), rounded
onto the three states (``repro.rules.expr.round_levels``).

Table 1 semantics:

=========== ======= ========== ===========
state       loaded  migrate-in migrate-out
=========== ======= ========== ===========
free        no      yes        no
busy        yes     no         no
overloaded  yes     no         yes
=========== ======= ========== ===========

The registry reads the last two columns directly: only FREE hosts are
destinations (``SoftStateTable.free_mask``), and an OVERLOADED report
starts a decision (``RegistryCore.handle``).
"""

from __future__ import annotations

from enum import IntEnum


class SystemState(IntEnum):
    """Severity-ordered host state."""

    FREE = 0
    BUSY = 1
    OVERLOADED = 2
    #: Soft-state lease expired; not a rule outcome but a registry state.
    UNAVAILABLE = 3

    # -- Table 1 ----------------------------------------------------------
    @property
    def loaded(self) -> bool:
        """Is the host carrying load?"""
        return self in (SystemState.BUSY, SystemState.OVERLOADED)


#: Plain-int codes of the named states: what the judgement code computes
#: with at either width (a Python int for one host, int8 for a column).
FREE = int(SystemState.FREE)
BUSY = int(SystemState.BUSY)
OVERLOADED = int(SystemState.OVERLOADED)


def combine_and(a: SystemState, b: SystemState) -> SystemState:
    """The ``&`` combinator: both must agree to escalate (min severity).

    Matches §4's worked example: "the system is in busy state if both
    rule 2 and [the weighted combination] are in busy or one of them is
    in busy and the other is in overloaded".
    """
    return SystemState(min(int(a), int(b)))


def combine_or(a: SystemState, b: SystemState) -> SystemState:
    """The ``|`` combinator: either may escalate (max severity)."""
    return SystemState(max(int(a), int(b)))
