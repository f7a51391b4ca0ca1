"""Call counting for the scaling guards: the number of Python-level
and C calls a piece of code makes is machine-independent, so "no
per-row Python" is asserted as a count that does not grow with rows."""

import gc
import sys


def count_calls(fn):
    """Python-level and C calls made while ``fn()`` runs.

    Garbage left by earlier code is collected first and the collector
    is paused while ``fn()`` runs: a cycle collected mid-call would
    count its finalizers (an unclosed socket's ``ResourceWarning``,
    say) as calls of ``fn``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls
