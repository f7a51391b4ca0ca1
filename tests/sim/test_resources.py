"""Unit tests for Store and FilterStore."""

import pytest

from repro.sim import Environment, FilterStore, Store


# ---------------------------------------------------------------- Store
def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    results = []

    def producer(env):
        yield store.put("a")
        yield env.timeout(1)
        yield store.put("b")

    def consumer(env):
        item = yield store.get()
        results.append((env.now, item))
        item = yield store.get()
        results.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert results == [(0, "a"), (1, "b")]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    results = []

    def consumer(env):
        item = yield store.get()
        results.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == [(5, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put(1)
        log.append(("put1", env.now))
        yield store.put(2)
        log.append(("put2", env.now))

    def consumer(env):
        yield env.timeout(10)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put1", 0) in log
    assert ("put2", 10) in log  # second put waited for the get


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(5):
            yield store.put(i)

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_len():
    env = Environment()
    store = Store(env)

    def producer(env):
        yield store.put("x")
        yield store.put("y")

    env.process(producer(env))
    env.run()
    assert len(store) == 2


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


# ---------------------------------------------------------- FilterStore
def test_filter_store_matches_predicate():
    env = Environment()
    store = FilterStore(env)
    got = []

    def producer(env):
        yield store.put(("tag", 1, "hello"))
        yield store.put(("tag", 2, "world"))

    def consumer(env):
        item = yield store.get(lambda m: m[1] == 2)
        got.append(item)
        item = yield store.get(lambda m: m[1] == 1)
        got.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [("tag", 2, "world"), ("tag", 1, "hello")]


def test_filter_store_blocked_getter_does_not_stall_others():
    env = Environment()
    store = FilterStore(env)
    got = []

    def blocked(env):
        item = yield store.get(lambda m: m == "never")
        got.append(("blocked", item))

    def eager(env):
        item = yield store.get(lambda m: m == "yes")
        got.append(("eager", item, env.now))

    def producer(env):
        yield env.timeout(1)
        yield store.put("yes")

    env.process(blocked(env))
    env.process(eager(env))
    env.process(producer(env))
    env.run()
    assert got == [("eager", "yes", 1)]


def test_filter_store_get_cancel():
    env = Environment()
    store = FilterStore(env)
    got = []

    def consumer(env):
        req = store.get(lambda m: m == "a")
        req.cancel()
        # A cancelled request never fires; the item goes to someone else.
        item = yield store.get()
        got.append(item)

    def producer(env):
        yield env.timeout(1)
        yield store.put("a")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == ["a"]
