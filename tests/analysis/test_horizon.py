"""Where an experiment run stops: job finished + drain, or the cap —
the helper itself, then the two drivers that end their runs through it."""

import pytest

from repro.analysis import (
    run_malleability_experiment,
    run_policy_experiment,
)
from repro.analysis.horizon import DRAIN_SECONDS, run_until_finished
from repro.core.policy import policy_1
from repro.sim import Environment
from repro.workloads import MonteCarloPiApp


def job(env, seconds, error=None):
    """A 'job' ending ``seconds`` from now, beside a heartbeat that —
    like the monitors — never runs out of events."""
    def _work():
        yield env.timeout(seconds)
        if error is not None:
            raise error

    def _heartbeat():
        while True:
            yield env.timeout(10.0)

    env.process(_heartbeat())
    return env.process(_work())


def drain_queue(env):
    """Dispatch everything still queued; the latest time seen."""
    times = [env.now]
    env.trace_hook = lambda now, event: times.append(now)
    env.run(until=10_000.0)
    return max(times[:-1])  # the last entry is our own until-event


@pytest.mark.parametrize("cap, stop", [
    (4000.0, 100.0 + DRAIN_SECONDS),   # finished, then the drain
    (110.0, 110.0),                    # the cap cuts the drain short
    (100.0 + DRAIN_SECONDS, 100.0 + DRAIN_SECONDS),
    (60.0, 60.0),                      # the job cannot finish
])
def test_stops_at_finish_plus_drain_or_the_cap(cap, stop):
    env = Environment()
    finished = job(env, 100.0)
    run_until_finished(env, finished, cap)
    assert env.now == stop
    assert finished.triggered == (cap >= 100.0)


def test_schedules_nothing_past_the_cap():
    # No heartbeat here: what is left in the queue is the helper's.
    for cap in (110.0, 4000.0):
        env = Environment()
        run_until_finished(env, env.timeout(100.0), cap)
        assert drain_queue(env) <= cap
    env = Environment()
    run_until_finished(env, env.event(), 60.0)
    assert drain_queue(env) <= 60.0


def test_a_failed_job_stops_the_clock_without_raising():
    env = Environment()
    finished = job(env, 100.0, error=RuntimeError("rank blew up"))
    run_until_finished(env, finished, 4000.0)
    assert env.now == 100.0 + DRAIN_SECONDS
    assert not finished.ok


def test_an_already_finished_job_only_drains():
    env = Environment()
    finished = env.timeout(5.0)
    env.run(until=20.0)
    run_until_finished(env, finished, 4000.0)
    assert env.now == 20.0 + DRAIN_SECONDS


# ------------------------------------------------------- the two drivers
def test_policy_run_honours_max_duration():
    """The parameter used to be ignored: the run went on to the job's
    end at ~980 s (and, for a job that cannot finish, for ever)."""
    row = run_policy_experiment(policy_1(), max_duration=50.0)
    assert row["total_s"] == 50.0
    assert row["checksum_ok"] is False
    assert row["migrated_to"] is None and row["migration_s"] is None


def test_policy_run_under_the_cap_is_unchanged():
    params = {"levels": 9, "trees": 10, "node_cost": 1.15e-4, "seed": 7}
    capped = run_policy_experiment(policy_1(), params=params,
                                   max_duration=400.0)
    free = run_policy_experiment(policy_1(), params=params)
    assert capped == free and free["checksum_ok"]
    assert free["total_s"] < 400.0 - DRAIN_SECONDS


def test_malleability_job_that_cannot_finish_reports_the_cap():
    result = run_malleability_experiment(max_duration=200.0)
    assert result["rigid_s"] == result["malleable_s"] == 200.0
    assert result["pi_ok"] is False


def test_a_failed_rank_reports_the_cap_and_does_not_raise(monkeypatch):
    """Both halves wait on ``world.finished``, which never fires: the
    survivors hang in the allreduce."""
    params = {"batches": 40, "batch_size": 100, "sample_cost": 1e-2,
              "seed": 2}
    run_step = MonteCarloPiApp.run_step

    def failing(self, state, ctx):
        if self.my_rank == 1 and state.batches_done == 3:
            raise RuntimeError("rank blew up")
        return (yield from run_step(self, state, ctx))

    monkeypatch.setattr(MonteCarloPiApp, "run_step", failing)
    result = run_malleability_experiment(params=params, max_duration=300.0)
    assert result["rigid_s"] == result["malleable_s"] == 300.0
    assert result["pi_ok"] is False
