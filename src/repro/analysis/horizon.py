"""Where an experiment run stops: job finished + drain, or the cap."""

from __future__ import annotations

from ..sim import Environment, Event

#: Simulated seconds run past the job's end so an overlapped migration
#: drain completes and its record closes.
DRAIN_SECONDS = 30.0


def run_until_finished(
    env: Environment, finished: Event, max_duration: float
) -> None:
    """Advance ``env`` to ``finished`` plus the drain, never past
    ``max_duration`` — a job that cannot finish stops at the cap.

    A ``finished`` that fails (a rank raised) stops the clock like one
    that succeeds; the caller reads the outcome from the runtimes.
    """
    cap = env.timeout(max_duration - env.now)
    env.run(until=env.any_of([finished, cap]))
    env.run(until=min(env.now + DRAIN_SECONDS, max_duration))
