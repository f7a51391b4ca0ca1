"""CPU model: speed, sharing, comm-load coupling, accounting."""

import pytest

from repro.sim import Environment
from repro.cluster import Cpu


def test_speed_scales_execution():
    env = Environment()
    fast = Cpu(env, speed=2.0)
    slow = Cpu(env, speed=0.5)
    jf = fast.execute(10.0)
    js = slow.execute(10.0)
    env.run()
    assert jf.finished_at == pytest.approx(5.0)
    assert js.finished_at == pytest.approx(20.0)


def test_two_jobs_share_cpu():
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    a = cpu.execute(10.0)
    b = cpu.execute(10.0)
    env.run()
    assert a.finished_at == pytest.approx(20.0)
    assert b.finished_at == pytest.approx(20.0)


def test_run_queue_counts_jobs():
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.execute(100.0)
    cpu.execute(100.0)
    env.run(until=1)
    assert cpu.run_queue == 2
    assert cpu.active_jobs == 2


def test_comm_load_competes_fairly_with_compute():
    # Protocol processing with demand f competes under PS: one job gets
    # the fraction 1/(1+f) of the CPU.
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(0.5)
    job = cpu.execute(10.0)
    env.run()
    assert job.finished_at == pytest.approx(15.0)


def test_comm_load_halves_one_job_at_unit_demand():
    # The Table 2 situation: comm demand ~1.0 → app runs at half speed.
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(1.0)
    job = cpu.execute(10.0)
    env.run()
    assert job.finished_at == pytest.approx(20.0)


def test_comm_load_share_scales_with_job_count():
    # With n jobs and demand f, jobs collectively get n/(n+f).
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(1.0)
    a = cpu.execute(10.0)
    b = cpu.execute(10.0)
    env.run()
    # Jobs get 2/3 total → 1/3 each → 30 s.
    assert a.finished_at == pytest.approx(30.0)
    assert b.finished_at == pytest.approx(30.0)


def test_comm_load_adds_to_run_queue():
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(0.97)
    assert cpu.run_queue == pytest.approx(0.97)


def test_comm_load_clamped():
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(100.0)  # silly value
    assert cpu.run_queue == pytest.approx(8.0)
    # Compute still progresses (1/9 of the CPU).
    job = cpu.execute(1.0)
    env.run()
    assert job.finished_at == pytest.approx(9.0)


def test_comm_load_cleared_restores_full_speed():
    env = Environment()
    cpu = Cpu(env, speed=1.0)

    def scenario(env):
        cpu.set_comm_load(1.0)
        job = cpu.execute(10.0)
        yield env.timeout(10)  # half the work done (rate 0.5)
        cpu.set_comm_load(0.0)
        yield job
        return env.now

    p = env.process(scenario(env))
    env.run()
    assert p.value == pytest.approx(15.0)


def test_comm_load_negative_clamped():
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(-1.0)
    assert cpu.run_queue == 0.0


def test_busy_time_includes_comm():
    env = Environment()
    cpu = Cpu(env, speed=1.0)

    def scenario(env):
        cpu.set_comm_load(0.5)
        yield env.timeout(10)
        cpu.set_comm_load(0.0)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    # 10 s at comm fraction 0.5 → 5 busy seconds; no compute jobs.
    assert cpu.busy_time() == pytest.approx(5.0)
    assert cpu.compute_busy_time() == pytest.approx(0.0)


def test_comm_only_time_is_judged_by_the_job_set_that_held():
    """Comm alone for 10 s, then one job: the 10 s count once, as
    comm-only, and the job's 1.5 s count once, as compute."""
    env = Environment()
    cpu = Cpu(env, speed=1.0)
    cpu.set_comm_load(0.5)
    env.run(until=10)
    job = cpu.execute(1.0)
    assert cpu.busy_time() == pytest.approx(5.0)
    env.run()
    assert job.finished_at == pytest.approx(11.5)
    assert cpu.busy_time() == pytest.approx(6.5)
    assert cpu.compute_busy_time() == pytest.approx(1.5)


def test_utilization_sampling():
    env = Environment()
    cpu = Cpu(env, speed=1.0)

    def scenario(env):
        yield cpu.execute(5.0)
        yield env.timeout(5)

    env.process(scenario(env))
    util0, state = cpu.utilization_sample(None)
    assert util0 == 0.0
    env.run()
    util, _ = cpu.utilization_sample(state)
    assert util == pytest.approx(0.5)


def test_invalid_speed():
    env = Environment()
    with pytest.raises(ValueError):
        Cpu(env, speed=0)
