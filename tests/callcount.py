"""Call counting for the scaling guards: the number of Python-level
and C calls a piece of code makes is machine-independent, so "no
per-row Python" is asserted as a count that does not grow with rows."""

import sys


def count_calls(fn):
    """Python-level and C calls made while ``fn()`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
