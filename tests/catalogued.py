"""Trace records checked against the event catalogue at run time.

Every record a traced run emits names an ``EVENTS`` entry, and it is a
span exactly when that entry's kind is ``"span"``.  The golden traces,
the efficiency run and the tests decorated with :func:`catalogued`
reach every ``tracer.event``/``tracer.begin`` site in ``src/``."""

import functools

from repro.trace import EVENTS, Tracer, use


def assert_catalogued(records):
    for rec in records:
        assert rec.name in EVENTS, f"uncatalogued event {rec.name!r}"
        assert rec.is_span == (EVENTS[rec.name].kind == "span"), (
            f"{rec.name!r} is catalogued as {EVENTS[rec.name].kind!r}")


def catalogued(*expected):
    """Run the decorated test under a tracer; afterwards every record
    must be catalogued with its kind, and each name in ``expected``
    must have been emitted."""

    def deco(test):
        @functools.wraps(test)
        def traced(*args, **kwargs):
            tracer = Tracer()
            with use(tracer):
                test(*args, **kwargs)
            assert_catalogued(tracer.records)
            missing = set(expected) - {r.name for r in tracer.records}
            assert not missing, f"never emitted: {sorted(missing)}"

        return traced

    return deco
