"""Load-average math: convergence, decay, windows."""

import math

import pytest

from repro.sim import Environment
from repro.cluster import LoadAverage

from .reference import sampled_loadavg


def test_initial_load_is_zero():
    env = Environment()
    la = sampled_loadavg(env, lambda: 5.0)
    assert la.as_tuple() == (0.0, 0.0, 0.0)


def test_constant_load_converges():
    env = Environment()
    la = sampled_loadavg(env, lambda: 2.0)
    env.run(until=3600)  # one hour
    assert la.one == pytest.approx(2.0, rel=1e-6)
    assert la.five == pytest.approx(2.0, rel=1e-4)
    assert la.fifteen == pytest.approx(2.0, rel=0.05)


def test_one_minute_reacts_faster_than_five():
    env = Environment()
    load = {"n": 0.0}
    la = sampled_loadavg(env, lambda: load["n"])
    env.run(until=60)
    load["n"] = 4.0
    env.run(until=120)  # one minute of load 4
    assert la.one > la.five > la.fifteen > 0


def test_decay_after_load_removed():
    env = Environment()
    load = {"n": 3.0}
    la = sampled_loadavg(env, lambda: load["n"])
    env.run(until=600)
    peak = la.one
    load["n"] = 0.0
    env.run(until=720)  # two minutes idle
    # After 120 s the 1-minute average decays by exp(-2) ≈ 0.135.
    assert la.one == pytest.approx(peak * math.exp(-2), rel=0.02)


def test_one_minute_60s_step_response():
    # Classic property: after 60 s at constant load L from 0, the
    # 1-minute average reaches L * (1 - 1/e).  Run slightly past 60 so
    # the sample scheduled exactly at t=60 is included.
    env = Environment()
    la = sampled_loadavg(env, lambda: 1.0)
    env.run(until=60.1)
    assert la.one == pytest.approx(1.0 - math.exp(-1), rel=0.01)


def test_custom_sample_interval():
    env = Environment()
    la = sampled_loadavg(env, lambda: 1.0, sample_interval=1.0)
    env.run(until=60.5)
    assert la.one == pytest.approx(1.0 - math.exp(-1), rel=0.01)


def test_invalid_interval():
    with pytest.raises(ValueError):
        LoadAverage(sample_interval=0)


def test_repr_contains_values():
    env = Environment()
    la = sampled_loadavg(env, lambda: 1.0)
    env.run(until=300)
    assert "LoadAverage" in repr(la)


def test_decay_constants_are_plain_attributes():
    la = LoadAverage()
    assert la.k_one == math.exp(-5.0 / 60.0)
    assert la.mk_one == 1.0 - la.k_one
    assert la.k_five == math.exp(-5.0 / 300.0)
    assert la.k_fifteen == math.exp(-5.0 / 900.0)
    assert la.mk_fifteen == 1.0 - la.k_fifteen


def test_decay_factors_shared_table():
    from repro.cluster.loadavg import decay_factors

    # Cached: LoadAverage.fold and the plane's column fold read the
    # exact same float objects.
    assert decay_factors(5.0) is decay_factors(5.0)
    (k1, mk1), (k5, mk5), (k15, mk15) = decay_factors(2.0)
    assert k1 == math.exp(-2.0 / 60.0) and mk1 == 1.0 - k1
    assert k5 == math.exp(-2.0 / 300.0) and k15 == math.exp(-2.0 / 900.0)
    with pytest.raises(ValueError):
        decay_factors(0.0)


def test_sampler_false_folds_only_on_demand():
    # A LoadAverage is a passive value: it starts no process of its own.
    env = Environment()
    la = LoadAverage()
    env.run(until=600)
    assert la.as_tuple() == (0.0, 0.0, 0.0)  # nobody sampled
    la.fold(2.0)
    assert la.one == 2.0 * la.mk_one
    assert la.five == 2.0 * la.mk_five
