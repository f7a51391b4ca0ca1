"""Unit tests for the generalized processor-sharing server."""

import pytest

from repro.sim import Environment, FairShareServer


def test_single_job_runs_at_full_rate():
    env = Environment()
    cpu = FairShareServer(env, rate=2.0)
    job = cpu.submit(10.0)
    env.run()
    assert job.finished_at == pytest.approx(5.0)


def test_two_equal_jobs_share_equally():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    a = cpu.submit(10.0)
    b = cpu.submit(10.0)
    env.run()
    # Each gets rate 0.5 → both finish at t=20.
    assert a.finished_at == pytest.approx(20.0)
    assert b.finished_at == pytest.approx(20.0)


def test_short_job_departure_speeds_up_long_job():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    long = cpu.submit(10.0)
    short = cpu.submit(2.0)
    env.run()
    # Both share until short done at t=4 (2 units at rate .5); long then
    # has 8 left at full rate: finishes at 4 + 8 = 12.
    assert short.finished_at == pytest.approx(4.0)
    assert long.finished_at == pytest.approx(12.0)


def test_late_arrival_slows_running_job():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    log = {}

    def submit_late(env):
        yield env.timeout(5)
        job = cpu.submit(5.0)
        yield job
        log["late"] = env.now

    first = cpu.submit(10.0)
    env.process(submit_late(env))
    env.run()
    # First runs alone 0-5 (5 done). Then shares: each at rate 0.5.
    # First needs 5 more → 10s shared → but late finishes at 5+10=15 too.
    assert first.finished_at == pytest.approx(15.0)
    assert log["late"] == pytest.approx(15.0)


def test_zero_demand_completes_immediately():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    job = cpu.submit(0.0)
    assert job.triggered
    env.run()
    assert job.finished_at == 0.0


def test_cancel_removes_job():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)

    def canceller(env, victim):
        yield env.timeout(2)
        victim.cancel()

    victim = cpu.submit(100.0)
    survivor = cpu.submit(10.0)
    env.process(canceller(env, victim))
    env.run()
    # Shared 0-2 (survivor has 9 left), then alone: finishes at 2+9=11.
    assert survivor.finished_at == pytest.approx(11.0)
    assert not victim.triggered
    assert victim.remaining == pytest.approx(99.0)


def test_cancel_after_completion_is_noop():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    job = cpu.submit(1.0)
    env.run()
    job.cancel()  # must not raise
    assert job.finished_at == pytest.approx(1.0)


def test_busy_time_accounting():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)

    def workload(env):
        yield cpu.submit(5.0)
        yield env.timeout(5)  # idle gap
        yield cpu.submit(3.0)

    env.process(workload(env))
    env.run()
    assert env.now == pytest.approx(13.0)
    assert cpu.busy_time() == pytest.approx(8.0)


def test_queue_time_accounting():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    cpu.submit(5.0)
    cpu.submit(5.0)
    env.run()
    # Two jobs, each at rate 0.5: both active for 10 s → integral = 20.
    assert cpu.queue_time() == pytest.approx(20.0)


def test_work_done_accounting():
    env = Environment()
    cpu = FairShareServer(env, rate=2.0)
    cpu.submit(6.0)
    cpu.submit(4.0)
    env.run()
    assert cpu.work_done() == pytest.approx(10.0)


def test_active_jobs_snapshot():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    cpu.submit(100.0)
    cpu.submit(100.0)
    env.run(until=1)
    assert cpu.active_jobs == 2
    assert len(cpu.jobs) == 2


def test_utilization_helper():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)

    def workload(env):
        yield cpu.submit(5.0)
        yield env.timeout(5)

    env.process(workload(env))
    env.run()
    # 5 busy seconds out of 10 elapsed.
    assert cpu.utilization(since_busy=0.0, since_now=0.0) == pytest.approx(0.5)


def test_progress_property():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    job = cpu.submit(10.0)
    env.run(until=4)
    cpu._advance()
    assert job.progress == pytest.approx(0.4)


def test_invalid_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        FairShareServer(env, rate=0)
    cpu = FairShareServer(env, rate=1.0)
    with pytest.raises(ValueError):
        cpu.submit(-1.0)


def test_many_staggered_jobs_work_conservation():
    env = Environment()
    cpu = FairShareServer(env, rate=1.0)
    demands = [3.0, 7.0, 2.0, 9.0, 5.0]

    def submitter(env):
        for i, d in enumerate(demands):
            cpu.submit(d, label=f"job{i}")
            yield env.timeout(1.0)

    env.process(submitter(env))
    env.run()
    # Work conservation: server never idles while work remains, so the
    # makespan equals total demand (first arrival at t=0).
    assert env.now == pytest.approx(sum(demands))
    assert cpu.work_done() == pytest.approx(sum(demands))
