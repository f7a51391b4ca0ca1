"""Load-average math on the host plane: convergence, decay, windows."""

import math
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, CpuHog, HostPlane
from repro.cluster.plane import DECAY_FACTORS, SAMPLE_INTERVAL
from repro.metrics import HostRecorder
from repro.monitor.sensors import SensorSuite
from repro.sim import Environment


def _plane_host(run_queue):
    """A host attached to a fresh plane, its run queue fixed at
    ``run_queue`` until a test sets ``host.cpu.run_queue``; returns the
    environment, the host and a reader of its plane row."""
    env = Environment()
    plane = HostPlane(env)
    host = SimpleNamespace(name="ws0",
                           cpu=SimpleNamespace(run_queue=run_queue))
    row = plane.attach(host)
    return env, host, lambda: plane.arrays.load_averages(row)


def test_initial_load_is_zero():
    env, _, loads = _plane_host(5.0)
    assert loads() == (0.0, 0.0, 0.0)
    env.run(until=SAMPLE_INTERVAL - 0.1)  # no fold yet
    assert loads() == (0.0, 0.0, 0.0)


def test_constant_load_converges():
    env, _, loads = _plane_host(2.0)
    env.run(until=3600)  # one hour
    one, five, fifteen = loads()
    assert one == pytest.approx(2.0, rel=1e-6)
    assert five == pytest.approx(2.0, rel=1e-4)
    assert fifteen == pytest.approx(2.0, rel=0.05)


def test_one_minute_reacts_faster_than_five():
    env, host, loads = _plane_host(0.0)
    env.run(until=60)
    host.cpu.run_queue = 4.0
    env.run(until=120)  # one minute of load 4
    one, five, fifteen = loads()
    assert one > five > fifteen > 0


def test_decay_after_load_removed():
    env, host, loads = _plane_host(3.0)
    env.run(until=600)
    peak = loads()[0]
    host.cpu.run_queue = 0.0
    env.run(until=720)  # two minutes idle
    # After 120 s the 1-minute average decays by exp(-2) ≈ 0.135.
    assert loads()[0] == pytest.approx(peak * math.exp(-2), rel=0.02)


def test_one_minute_60s_step_response():
    # Classic property: after 60 s at constant load L from 0, the
    # 1-minute average reaches L * (1 - 1/e).  Run slightly past 60 so
    # the sample scheduled exactly at t=60 is included.
    env, _, loads = _plane_host(1.0)
    env.run(until=60.1)
    assert loads()[0] == pytest.approx(1.0 - math.exp(-1), rel=0.01)


def test_decay_constants_are_plain_attributes():
    assert SAMPLE_INTERVAL == 5.0
    (k1, mk1), (k5, mk5), (k15, mk15) = DECAY_FACTORS
    assert k1 == math.exp(-5.0 / 60.0) and mk1 == 1.0 - k1
    assert k5 == math.exp(-5.0 / 300.0) and mk5 == 1.0 - k5
    assert k15 == math.exp(-5.0 / 900.0) and mk15 == 1.0 - k15


def test_decay_factors_shared_table():
    # The plane's column fold and the scalar oracle read the exact same
    # float objects, so the bit-identity tests compare the arithmetic
    # and not two separately computed constants.
    from repro.cluster import plane

    from . import reference

    assert isinstance(DECAY_FACTORS, tuple)
    assert (plane._K1, plane._MK1) == DECAY_FACTORS[0]
    for name in ("_K1", "_MK1", "_K5", "_MK5", "_K15", "_MK15"):
        assert getattr(reference, name) is getattr(plane, name), name


def test_sampler_false_folds_only_on_demand():
    # The scalar oracle is a passive value: it starts no process of its
    # own, so only the sampler that drives it moves it.
    from .reference import ScalarLoadAverage

    env = Environment()
    la = ScalarLoadAverage()
    env.run(until=600)
    assert la.as_tuple() == (0.0, 0.0, 0.0)  # nobody sampled
    la.fold(2.0)
    (_, mk1), (_, mk5), (_, mk15) = DECAY_FACTORS
    assert la.as_tuple() == (2.0 * mk1, 2.0 * mk5, 2.0 * mk15)


def test_load_metrics_are_python_floats():
    """Snapshots and recorded points carry ``float``, not
    ``numpy.float64``: the plane's columns are numpy, its readers are
    not."""
    cluster = Cluster(n_hosts=1, seed=0)
    host = cluster["ws1"]
    CpuHog(host, count=2)
    recorder = HostRecorder(host, interval=10.0)
    suite = SensorSuite(host)
    cluster.run(until=60.5)
    assert all(type(v) is float for v in host.load_averages())
    snapshot = suite.sample()
    for metric in ("loadavg1", "loadavg5", "loadavg15"):
        assert type(snapshot[metric]) is float, metric
    # The recorder's staged samples, before a flush converts them.
    for metric in ("loadavg1", "loadavg5"):
        _, values = recorder._pending[metric]
        assert values and all(type(v) is float for v in values), metric
    assert snapshot["loadavg1"] > 0.0
