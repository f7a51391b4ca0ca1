"""Resource-requirement matching: a destination must "own all the
resources required" (paper §3.2)."""


from repro.cluster import Cluster, CpuHog
from repro.core import Rescheduler, ReschedulerConfig, policy_2
from repro.entity.clock import ManualClock
from repro.registry.hostmatrix import requirements_mask
from repro.registry.registry import (
    _requirements_from_xml,
    _requirements_xml,
)
from repro.registry.softstate import SoftStateTable
from repro.rules.states import SystemState
from repro.schema import ApplicationSchema, ResourceRequirements
from repro.workloads import TestTreeApp

from . import reference


def rec(host, static=None, metrics=None):
    """A one-host soft-state table holding the record under test."""
    table = SoftStateTable(ManualClock())
    table.register(host, static or {})
    table.update(host, SystemState.FREE, metrics or {})
    return table


def req(**kw):
    return ResourceRequirements(**kw)


def meets(table, requirements):
    """The production column predicate on the table's single row —
    which must be what the record-walking reference says."""
    answer = bool(requirements_mask(table.matrix, requirements)[0])
    (record,) = table.records()
    assert answer == reference.meets_requirements(record, requirements)
    return answer


def test_no_requirements_always_pass():
    assert meets(rec("a"), None)
    assert meets(rec("a"), req())


def test_memory_requirement():
    r = req(min_memory_bytes=100)
    assert meets(rec("a", metrics={"mem_avail_bytes": 200}), r)
    assert not meets(rec("a", metrics={"mem_avail_bytes": 50}), r)
    # Missing metric fails a positive requirement (checked, not assumed).
    assert not meets(rec("a"), r)


def test_disk_requirement():
    r = req(min_disk_bytes=10**9)
    assert meets(rec("a", metrics={"disk_avail_bytes": 2e9}), r)
    assert not meets(rec("a", metrics={"disk_avail_bytes": 1e8}), r)


def test_cpu_speed_requirement():
    r = req(min_cpu_speed=2.0)
    assert meets(rec("a", static={"cpu_speed": 4.0}), r)
    assert not meets(rec("a", static={"cpu_speed": 1.0}), r)
    # Absent static info (delegated registry record): permissive.
    assert meets(rec("a"), r)


def test_feature_requirement():
    r = req(features=("fpu", "bigmem"))
    assert meets(rec("a", static={"features": "fpu,bigmem,gpu"}), r)
    assert not meets(rec("a", static={"features": "fpu"}), r)
    assert meets(rec("a"), r)  # no static feature info: permissive


def test_requirements_xml_roundtrip():
    r = req(min_memory_bytes=123, min_disk_bytes=456,
            min_cpu_speed=1.5, features=("fpu",))
    back = _requirements_from_xml(_requirements_xml(r))
    assert back == r
    assert _requirements_from_xml("") is None
    assert _requirements_xml(None) == ""


def test_end_to_end_requirements_route_migration():
    """An app requiring 2x CPU speed skips the slow free host and lands
    on the fast one, even though the slow one is first in the list."""
    cluster = Cluster(n_hosts=2, seed=0)
    cluster.add_host("slowfree", cpu_speed=1.0)
    cluster.add_host("fastfree", cpu_speed=4.0)
    rs = Rescheduler(
        cluster, policy=policy_2(),
        config=ReschedulerConfig(interval=10.0, sustain=3),
    )
    schema = ApplicationSchema(
        name="test_tree",
        requirements=ResourceRequirements(min_cpu_speed=2.0),
    )
    params = {"levels": 10, "trees": 100, "node_cost": 4e-4, "seed": 2}
    app = rs.launch_app(TestTreeApp(), "ws1", params=params,
                        schema=schema)

    def inject(env):
        yield env.timeout(40)
        CpuHog(cluster["ws1"], count=4, name="load")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    assert app.migration_count == 1
    assert app.host.name == "fastfree"


def test_end_to_end_memory_requirement_blocks_small_hosts():
    cluster = Cluster(n_hosts=3, seed=0)  # default 128 MB hosts
    rs = Rescheduler(
        cluster, policy=policy_2(),
        config=ReschedulerConfig(interval=10.0, sustain=3),
    )
    schema = ApplicationSchema(
        name="test_tree",
        requirements=ResourceRequirements(
            min_memory_bytes=1024 ** 4  # 1 TB: nobody qualifies
        ),
    )
    params = {"levels": 10, "trees": 100, "node_cost": 4e-4, "seed": 2}
    app = rs.launch_app(TestTreeApp(), "ws1", params=params,
                        schema=schema)

    def inject(env):
        yield env.timeout(40)
        CpuHog(cluster["ws1"], count=4, name="load")

    cluster.env.process(inject(cluster.env))
    cluster.env.run(until=app.done)
    assert app.migration_count == 0  # no host owns the resources
    decisions = rs.decisions
    assert decisions and all(d.dest is None for d in decisions)
