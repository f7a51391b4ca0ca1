"""Property-based tests: processor-sharing invariants."""


import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Environment, FairShareServer

_demands = st.lists(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    min_size=1, max_size=8,
)
_arrival_gaps = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    min_size=0, max_size=7,
)
_rates = st.floats(min_value=0.1, max_value=16.0, allow_nan=False)


@given(_demands, _rates)
@settings(max_examples=60, deadline=None)
def test_simultaneous_jobs_conserve_work(demands, rate):
    """All jobs submitted at t=0: makespan == Σdemand / rate exactly
    (the server is work-conserving)."""
    env = Environment()
    server = FairShareServer(env, rate=rate)
    jobs = [server.submit(d) for d in demands]
    env.run()
    assert env.now == pytest.approx(sum(demands) / rate, rel=1e-6)
    assert all(j.triggered and j.ok for j in jobs)
    assert server.work_done() == pytest.approx(sum(demands), rel=1e-6)


@given(_demands, _arrival_gaps, _rates)
# Churn: 2000 jobs of 0.1 s arriving at twice the server's capacity.
@example([0.1] * 2000, [0.05] * 1999, 1.0)
@settings(max_examples=60, deadline=None)
def test_staggered_jobs_work_conservation(demands, gaps, rate):
    """With staggered arrivals the server never idles while work
    remains, and total served work equals total demand."""
    env = Environment()
    server = FairShareServer(env, rate=rate)
    gaps = (gaps + [0.0] * len(demands))[: len(demands) - 1]
    finished = []

    def submitter(env):
        for i, demand in enumerate(demands):
            job = server.submit(demand)
            job.callbacks.append(lambda ev: finished.append(env.now))
            if i < len(gaps):
                yield env.timeout(gaps[i])
        return None

    env.process(submitter(env))
    env.run()
    assert server.work_done() == pytest.approx(sum(demands), rel=1e-6)
    # Busy time == work / rate (never serving at less than full rate).
    assert server.busy_time() == pytest.approx(sum(demands) / rate,
                                               rel=1e-6)
    assert len(finished) == len(demands)


@given(_demands, _rates)
@settings(max_examples=40, deadline=None)
def test_completion_order_follows_demand(demands, rate):
    """Jobs submitted together finish in demand order (smaller
    demand never finishes after a larger one)."""
    env = Environment()
    server = FairShareServer(env, rate=rate)
    jobs = [server.submit(d) for d in demands]
    env.run()
    finish = [(j.demand, j.finished_at) for j in jobs]
    for d1, t1 in finish:
        for d2, t2 in finish:
            if d1 < d2:
                assert t1 <= t2 + 1e-9


@given(_demands)
@settings(max_examples=30, deadline=None)
def test_queue_time_integral_equals_sum_of_sojourns(demands):
    """∫ queue dt == Σ per-job sojourn times."""
    env = Environment()
    server = FairShareServer(env, rate=1.0)
    jobs = [server.submit(d) for d in demands]
    env.run()
    sojourn = sum(j.finished_at - j.started_at for j in jobs)
    assert server.queue_time() == pytest.approx(sojourn, rel=1e-6)
