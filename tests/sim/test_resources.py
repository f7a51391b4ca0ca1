"""Unit tests for Store: immediate puts, FIFO and filtered gets, close."""

from repro.sim import Environment, Store


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    results = []

    def producer(env):
        store.put("a")
        yield env.timeout(1)
        store.put("b")

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
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == [(5, "late")]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(5):
            store.put(i)
            yield env.timeout(0)

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
    store.put("x")
    store.put("y")
    assert len(store) == 2


# ------------------------------------------------------- filtered gets
def test_filter_store_matches_predicate():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        store.put(("tag", 1, "hello"))
        store.put(("tag", 2, "world"))
        yield env.timeout(0)

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
    store = Store(env)
    got = []

    def blocked(env):
        item = yield store.get(lambda m: m == "never")
        got.append(("blocked", item))

    def eager(env):
        item = yield store.get(lambda m: m == "yes")
        got.append(("eager", item, env.now))

    def producer(env):
        yield env.timeout(1)
        store.put("yes")

    env.process(blocked(env))
    env.process(eager(env))
    env.process(producer(env))
    env.run()
    assert got == [("eager", "yes", 1)]
    assert len(store) == 0


def test_close_fails_waiting_and_later_gets():
    env = Environment()
    store = Store(env)
    store.put("kept")
    boom = RuntimeError("closed")
    seen = []

    def waiter(env):
        try:
            yield store.get(lambda item: item == "never")
        except RuntimeError as exc:
            seen.append(("waiting", env.now, exc))

    def late(env):
        yield env.timeout(2)
        try:
            yield store.get()
        except RuntimeError as exc:
            seen.append(("later", env.now, exc))

    def closer(env):
        yield env.timeout(1)
        store.close(boom)

    for proc in (waiter, late, closer):
        env.process(proc(env))
    env.run()
    # Even a get that an item would have matched fails once closed.
    assert seen == [("waiting", 1, boom), ("later", 2, boom)]
