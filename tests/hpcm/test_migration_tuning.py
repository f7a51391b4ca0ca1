"""Migration tuning knobs: chunking, resume fraction, serialize rate."""

import pytest

from repro.cluster import Cluster
from repro.hpcm import MigrationOrder, launch
from repro.mpi import MpiRuntime
from repro.workloads import TestTreeApp

BIG = {"levels": 16, "trees": 6, "node_cost": 2e-5, "seed": 2}


def migrate_once(**kwargs):
    cluster = Cluster(n_hosts=2, seed=0)
    mpi = MpiRuntime(cluster)
    rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG, **kwargs)

    def order(env):
        yield env.timeout(2.0)
        rt.request_migration(
            MigrationOrder(dest_host="ws2", issued_at=env.now)
        )

    cluster.env.process(order(cluster.env))
    cluster.env.run(until=rt.done)
    cluster.env.run(until=cluster.env.now + 30)
    (rec,) = rt.migrations
    assert rec.succeeded
    assert rt.result == pytest.approx(TestTreeApp.expected_checksum(BIG))
    return rec


def test_single_chunk_resumes_only_after_everything():
    rec = migrate_once(chunks=1, resume_fraction=1.0)
    assert rec.drain_seconds == pytest.approx(0.0, abs=0.01)


def test_many_chunks_small_resume_fraction_overlaps_most():
    rec = migrate_once(chunks=32, resume_fraction=0.05)
    # Almost the whole transfer drains after resume.
    assert rec.drain_seconds > rec.resume_seconds


def test_resume_fraction_one_with_chunks():
    rec = migrate_once(chunks=8, resume_fraction=1.0)
    assert rec.drain_seconds == pytest.approx(0.0, abs=0.01)


def test_slower_serialize_rate_delays_resume():
    fast = migrate_once(serialize_rate=1e9)
    slow = migrate_once(serialize_rate=10e6)
    assert slow.resume_seconds > fast.resume_seconds


def test_parameter_validation():
    cluster = Cluster(n_hosts=1, seed=0)
    mpi = MpiRuntime(cluster)
    with pytest.raises(ValueError):
        launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG, chunks=0)
    with pytest.raises(ValueError):
        launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG,
               resume_fraction=0.0)
    with pytest.raises(ValueError):
        launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG,
               resume_fraction=1.5)


@pytest.mark.parametrize("rate", [0, -1])
def test_serialize_rate_must_be_positive(rate):
    """Zero failed every capture on a division; a negative rate
    charged no CPU.  Both are refused when the rank is built."""
    cluster = Cluster(n_hosts=1, seed=0)
    mpi = MpiRuntime(cluster)
    with pytest.raises(ValueError, match="serialize_rate"):
        launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG,
               serialize_rate=rate)


def test_heterogeneous_bandwidth_affects_transfer():
    def run(bandwidth):
        cluster = Cluster(n_hosts=1, seed=0)
        cluster.add_host("dest", bandwidth=bandwidth)
        mpi = MpiRuntime(cluster)
        rt = launch(mpi, TestTreeApp(), cluster["ws1"], params=BIG)

        def order(env):
            yield env.timeout(2.0)
            rt.request_migration(
                MigrationOrder(dest_host="dest", issued_at=env.now)
            )

        cluster.env.process(order(cluster.env))
        cluster.env.run(until=rt.done)
        cluster.env.run(until=cluster.env.now + 60)
        (rec,) = rt.migrations
        return rec.completed_at - rec.spawned_at

    slow_link = run(bandwidth=1.25e6)   # 10 Mbps
    fast_link = run(bandwidth=12.5e6)   # 100 Mbps
    assert slow_link > 3 * fast_link
