"""A mega-cluster built by column equals one built host by host.

``analysis/overhead.py::_add_analytic_hosts`` appends every analytic
row in one batch and ``Rescheduler`` registers the host list in one
``register_many``; the loops they replaced live on in
``tests/cluster/reference.py`` and ``tests/registry/reference.py`` and
must leave the same bytes behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.overhead import _add_analytic_hosts, _build_baseline
from repro.cluster import Cluster, ClusterStateArrays
from repro.core.policy import policy_2
from repro.core.rescheduler import Rescheduler
from repro.registry.hostmatrix import HostStateMatrix
from repro.registry.softstate import SoftStateTable

from ..registry.reference import register_one_by_one
from .reference import add_analytic_hosts_one_by_one


def build(seed, hosts, add_hosts):
    cluster = Cluster(n_hosts=2, seed=seed)
    _build_baseline(cluster)
    add_hosts(cluster, hosts)
    return cluster


# 3 hosts = a single analytic row, the ``reshape(-1, 2)`` edge.
@pytest.mark.parametrize("hosts", [3, 4, 66, 1000])
@pytest.mark.parametrize("seed", [0, 5, 7919])
def test_batch_build_equals_one_by_one(hosts, seed):
    batch = build(seed, hosts, _add_analytic_hosts)
    ref = build(seed, hosts, add_analytic_hosts_one_by_one)

    a, b = batch.plane.arrays, ref.plane.arrays
    assert a.hosts == b.hosts and len(batch) == len(ref) == hosts
    for name in ClusterStateArrays._COLUMNS:
        assert np.array_equal(a.col(name), b.col(name)), name
    assert np.array_equal(a.analytic, b.analytic)
    assert a.analytic.sum() == hosts - 2
    assert batch._deferred == ref._deferred
    assert list(batch._deferred) == list(ref._deferred)
    # The stream was consumed draw for draw.
    assert (batch.rng.stream("analytic-hosts").random()
            == ref.rng.stream("analytic-hosts").random())

    rs = Rescheduler(batch, policy=policy_2(), registry_host="ws1")
    table = SoftStateTable(ref.env, lease=rs.config.lease)
    names = ref.names()
    register_one_by_one(
        table, names, [ref.static_info(n).as_dict() for n in names])
    m, r = rs.registry.table.matrix, table.matrix
    assert m.hosts == r.hosts == names
    for attr in HostStateMatrix._COLUMNS:
        assert np.array_equal(getattr(m, attr)[:m.n],
                              getattr(r, attr)[:r.n]), attr
    assert np.array_equal(m._metrics[:m.n], r._metrics[:r.n],
                          equal_nan=True)
    assert m._static == r._static
    assert m._features == r._features
    assert np.array_equal(m.registry_mask, r.registry_mask)
    assert [v.host for v in m.views()] == names
    assert m.rows_of(names).tolist() == list(range(hosts))


#: ``HostSpec`` fields a batch may set: with and without an ``ip`` or
#: ``features``, and a speed the matrix parses into its column.
SPECS = st.fixed_dictionaries({}, optional={
    "cpu_speed": st.sampled_from([0.5, 1.0, 2.25]),
    "ip": st.sampled_from(["10.9.9.9", "192.168.0.7"]),
    "features": st.lists(st.sampled_from(["gpu", "ib", "fpu"]),
                         max_size=3, unique=True).map(tuple),
    "memory_bytes": st.sampled_from([64 << 20, 1 << 30]),
    "os_name": st.sampled_from(["SunOS 5.8", "Linux 2.4"]),
})


@settings(max_examples=80, deadline=None)
@given(
    batches=st.lists(st.tuples(st.booleans(), SPECS, st.integers(1, 4)),
                     min_size=1, max_size=5),
    data=st.data(),
)
def test_static_dicts_equal_static_info_as_dict(batches, data):
    """Per-spec template dicts ≡ ``static_info(name).as_dict()`` — value
    and key order (the ``Register`` XML's order) — over backed hosts,
    analytic rows, analytic rows since built into hosts and any
    interleaving of batches; and the matrix parses them into the
    ``features``/``cpu_speed`` columns the oracle's dicts give."""
    cluster = Cluster(n_hosts=2, seed=0)
    names = ["ws1", "ws2"]
    for b, (analytic, spec, count) in enumerate(batches):
        batch = [f"b{b}h{i}" for i in range(count)]
        if analytic:
            cluster.add_analytic_hosts(batch, mean_load=0.1, **spec)
        else:
            for name in batch:
                cluster.add_host(name, **spec)
        names += batch
    for name in data.draw(st.lists(st.sampled_from(names), max_size=3)):
        cluster.host(name)
    names = data.draw(st.permutations(names))

    dicts = cluster.static_dicts(names)
    oracle = [cluster.static_info(name).as_dict() for name in names]
    assert [list(d.items()) for d in dicts] == [
        list(d.items()) for d in oracle]

    matrix = HostStateMatrix()
    matrix.add_rows(names, dicts, 0.0)
    assert matrix._features == [
        frozenset(f for f in d["features"].split(",") if f)
        for d in oracle]
    assert matrix.cpu_speed.tolist() == [d["cpu_speed"] for d in oracle]
