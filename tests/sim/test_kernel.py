"""Unit tests for the DES kernel: clock, events, processes, conditions."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        assert env.now == 3
        yield env.timeout(4.5)
        assert env.now == 7.5

    env.process(proc(env))
    env.run()
    assert env.now == 7.5


def test_timeout_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1)
        return got

    p = env.process(proc(env))
    env.run()
    assert p.ok and p.value is None


def test_event_value_passes_through():
    env = Environment()

    def proc(env):
        got = yield env.event().succeed("hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.ok and p.value == 99


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(10)

    env.process(ticker(env))
    env.run(until=35)
    assert env.now == 35


def test_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return "done"

    p = env.process(proc(env))
    value = env.run(until=p)
    assert value == "done"
    assert env.now == 5


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    log = []

    def waiter(env):
        value = yield ev
        log.append((env.now, value))

    def firer(env):
        yield env.timeout(7)
        ev.succeed("fired")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert log == [(7, "fired")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_propagates():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield "not an event"

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_bare_delay_sleeps():
    # Fast path: yielding a plain number == yielding env.timeout(n).
    env = Environment()

    def proc(env):
        got = yield 3
        assert got is None
        yield 4.5
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 7.5 and env.now == 7.5


def test_bare_delay_interleaves_with_timeouts():
    env = Environment()
    log = []

    def bare(env):
        for _ in range(3):
            yield 2.0
            log.append(("bare", env.now))

    def timed(env):
        for _ in range(3):
            yield env.timeout(2.0)
            log.append(("timed", env.now))

    env.process(bare(env))
    env.process(timed(env))
    env.run()
    # Same-time FIFO order holds across both wait styles.
    assert log == [("bare", 2.0), ("timed", 2.0), ("bare", 4.0),
                   ("timed", 4.0), ("bare", 6.0), ("timed", 6.0)]


def test_negative_bare_delay_fails_process():
    env = Environment()

    def proc(env):
        yield -1.0

    env.process(proc(env))
    with pytest.raises(SimulationError, match="negative"):
        env.run()


def test_same_time_events_fifo_order():
    env = Environment()
    log = []

    def proc(env, tag):
        yield env.timeout(5)
        log.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert log == ["a", "b", "c"]


def test_wait_for_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (4, "child-result")


def test_all_of_waits_for_all():
    env = Environment()

    def parent(env):
        t1 = env.timeout(3)
        t2 = env.timeout(7)
        result = yield env.all_of([t1, t2])
        return (env.now, result, t1.processed, t2.processed)

    p = env.process(parent(env))
    env.run()
    assert p.value == (7, None, True, True)


def test_any_of_fires_on_first():
    env = Environment()

    def parent(env):
        t1 = env.timeout(3)
        t2 = env.timeout(7)
        result = yield env.any_of([t1, t2])
        return (env.now, result, t1.processed, t2.processed)

    p = env.process(parent(env))
    env.run()
    assert p.value == (3, None, True, False)


def test_empty_condition_fires_immediately():
    env = Environment()

    def parent(env):
        yield env.all_of([])
        return env.now

    p = env.process(parent(env))
    env.run()
    assert p.value == 0


def test_run_empty_queue_returns_none():
    env = Environment()
    assert env.run() is None


def test_condition_failure_propagates():
    env = Environment()
    ev = env.event()

    def firer(env):
        yield env.timeout(1)
        ev.fail(KeyError("inner"))

    def waiter(env):
        try:
            yield env.all_of([ev, env.timeout(10)])
        except KeyError:
            return "caught"

    env.process(firer(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == "caught"


def test_until_event_queue_dry_raises():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError, match="ran dry"):
        env.run(until=ev)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_ten_tickers_of_2000_steps_end_together():
    env = Environment()

    def ticker(env, n):
        for _ in range(n):
            yield env.timeout(1.0)

    for _ in range(10):
        env.process(ticker(env, 2000))
    env.run()
    assert env.now == 2000.0
