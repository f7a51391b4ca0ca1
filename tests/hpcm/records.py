"""The terminal-record invariant every reconfiguration attempt obeys."""

from repro.hpcm.runtime import MIGRATION
from repro.hpcm.world import ASSEMBLE, RESHAPE


def rung_names(rec):
    """The rung table ``rec``'s attempt climbed, as names in order."""
    if hasattr(rec, "kind"):
        return [ASSEMBLE.name] + [rung.name for rung in RESHAPE[rec.kind]]
    return [rung.name for rung in MIGRATION]


def assert_terminal(records):
    """Each of ``records`` is one finished attempt: succeeded xor a
    failure, closed no earlier than ordered, its completed rungs a
    prefix of the table in non-decreasing time — the whole table on
    success, up to the rung the failure names otherwise."""
    for rec in records:
        assert rec.succeeded != bool(rec.failure), rec
        assert rec.completed_at >= rec.ordered_at, rec
        assert rec.total_seconds >= 0, rec
        names, done = rung_names(rec), list(rec.steps)
        assert done == names[:len(done)], rec
        times = list(rec.steps.values())
        assert times == sorted(times) and all(
            rec.ordered_at <= t <= rec.completed_at for t in times), rec
        failed_on = rec.failure.split(" ", 1)[0]
        if rec.succeeded:
            assert done == names, rec
        elif failed_on in names:
            assert done == names[:names.index(failed_on)], rec
        else:  # a refusal: its own words, but some rung said them
            assert len(done) < len(names), rec
