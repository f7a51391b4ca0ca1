"""The differential gate: production decisions ≡ the reference.

Randomized registries — duplicated load values, expired leases,
exclusions, child-registry (``@``) rows, resource requirements, policy
conditions, unreported metrics — are pushed through the production
column path (``RegistryCore._pick_destinations``,
``monitor.selector.select_victim``) and the record-walking reference
(``tests/registry/reference.py``); any divergence is a bug in the
column code, never a tolerance.  Tie-breaking gets dedicated property
tests because stable-sort edge cases (equal est_completion, equal
loadavg1) are exactly where a lexsort and a Python ``max``/``min``
could silently part ways.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import malleable_policy
from repro.core.policy import PAPER_POLICIES
from repro.entity.clock import ManualClock
from repro.monitor.selector import ProcessInfo, select_victim
from repro.registry.core import RegistryCore
from repro.registry.strategies import best_fit, first_fit, random_fit
from repro.rules.states import SystemState
from repro.schema import ResourceRequirements
from repro.sim.rng import seeded_generator

from . import reference

LEASE = 35.0


def host_name(i):
    """Every fifth record is a child registry (an ``@`` row)."""
    return f"reg@child{i:02d}" if i % 5 == 3 else f"ws{i:02d}"


#: A small value pool forces duplicated loads/metrics (tie cases).
POOL = [0.0, 0.5, 0.5, 1.0, 2.0, 4.0]


def random_metrics(rng):
    metrics = {}
    for name in ("loadavg1", "proc_count", "comm_mbs",
                 "mem_avail_bytes", "disk_avail_bytes"):
        if rng.random() < 0.8:  # gaps exercise NaN semantics
            metrics[name] = float(rng.choice(POOL)) * (
                1e9 if name.endswith("bytes") else 1.0)
    return metrics


def random_core(seed, strategy, policy=None):
    """A RegistryCore over a randomized soft-state registry."""
    rng = seeded_generator(seed)
    core = RegistryCore(
        ManualClock(), "registry", lease=LEASE, policy=policy,
        strategy=strategy, rng=seeded_generator(seed + 1),
    )
    n = int(rng.integers(2, 25))
    for i in range(n):
        host = host_name(i)
        static = {}
        if rng.random() < 0.5:
            static["cpu_speed"] = float(rng.choice([800.0, 2000.0]))
        if rng.random() < 0.4:
            static["features"] = str(
                rng.choice(["", "gpu", "gpu,ib", "fpu"]))
        core.table.register(host, static)
        state = SystemState(int(rng.integers(0, 3)))
        core.table.update(host, state, random_metrics(rng))
    # Age some leases past expiry, in a way the table allows
    # (clock moves forward; some hosts never push again).
    core.clock.set(LEASE * 0.9)
    for i in range(n):
        if rng.random() < 0.6:
            core.table.update(host_name(i), SystemState.FREE,
                              random_metrics(rng))
    core.clock.set(LEASE * 1.2)  # non-refreshed pushes now stale
    return core, rng


def random_requirements(rng):
    if rng.random() < 0.4:
        return None
    return ResourceRequirements(
        min_memory_bytes=int(rng.choice([0, int(1e9)])),
        min_disk_bytes=int(rng.choice([0, int(1e9)])),
        min_cpu_speed=float(rng.choice([0.0, 1000.0])),
        features=[(), ("gpu",), ("gpu", "ib")][int(rng.integers(0, 3))],
    )


def random_exclude(rng):
    return tuple(
        host_name(int(i))
        for i in rng.integers(0, 20, size=int(rng.integers(0, 3)))
    )


def verify(core, k, exclude, requirements, children):
    """Run one pick through production and through the reference on
    the same generator stream; equal picks *and* equal generator
    positions afterwards, or AssertionError.  Returns the picks."""
    bits = core.rng.bit_generator
    before = bits.state
    produced = core._pick_destinations(k, exclude, requirements, children)
    after = bits.state
    bits.state = before
    expected = reference.pick_destinations(
        core, k, exclude, requirements, children)
    assert produced == expected, (
        f"k={k} children={children}: production={produced!r} "
        f"reference={expected!r}"
    )
    assert bits.state == after, "generator positions differ"
    return produced


POLICIES = {
    None: lambda: None,
    1: PAPER_POLICIES[1],
    2: PAPER_POLICIES[2],
    3: PAPER_POLICIES[3],
    "malleable": malleable_policy,
}


@pytest.mark.parametrize("strategy", [first_fit, best_fit, random_fit],
                         ids=lambda s: s.__name__)
@pytest.mark.parametrize("policy_no", list(POLICIES))
def test_destination_differential(strategy, policy_no):
    """Production and reference picks agree on 40 random registries per
    strategy/policy combination, for k ∈ {1, 2, 5, > eligible}, with
    child registries admissible (the 1:1 path — k = 1 is the historical
    single-destination pick) and masked out (the reshape path)."""
    base = (sum(map(ord, str(policy_no))) * 1000
            + sum(map(ord, strategy.__name__)) % 997)
    widest = 0
    for trial in range(40):
        core, rng = random_core(base + trial, strategy,
                                policy=POLICIES[policy_no]())
        exclude = random_exclude(rng)
        req = random_requirements(rng)
        for k in (1, 2, 5, 100):
            for children in (True, False):
                picked = verify(core, k, exclude, req, children)
                widest = max(widest, len(picked))
    # The comparison is not [] == []: registries did offer hosts.
    assert widest >= 3


def test_verify_mode_runs_both_paths_clean():
    for strategy in (first_fit, best_fit, random_fit):
        core, rng = random_core(7, strategy, policy=PAPER_POLICIES[1]())
        for _ in range(10):
            verify(core, 1, (), random_requirements(rng), True)


def test_verify_mode_raises_on_divergence():
    """The differential has teeth: a column predicate that drifted
    from the record walk makes production and reference disagree.
    (Records are views of the same columns, so corrupting the data
    moves both sides; corrupting the column *code* does not.)"""
    core, _ = random_core(11, first_fit)
    free_mask = core.table.free_mask
    core.table.free_mask = lambda: ~free_mask()
    with pytest.raises(AssertionError):
        verify(core, 1, (), None, True)


# -- victim selection: single pass ≡ max-key property -------------------

_proc = st.fixed_dictionaries({
    "name": st.just("app"),
    "pid": st.integers(1, 6),  # tiny ranges force duplicate keys
    "est_completion": st.sampled_from([10.0, 20.0, 20.0, 30.0]),
    "start_time": st.sampled_from([0.0, 1.0, 1.0, 2.0]),
    "data_locality": st.sampled_from([0.0, 0.3, 0.6, 1.0]),
})


def _seeded_processes(n, seed):
    """``n`` reports drawn from the same tiny value pools as ``_proc``
    — long lists without hypothesis building every dict."""
    rng = seeded_generator(seed)
    return [
        {"name": "app", "pid": int(rng.integers(1, 7)),
         "est_completion": float(rng.choice([10.0, 20.0, 20.0, 30.0])),
         "start_time": float(rng.choice([0.0, 1.0, 1.0, 2.0])),
         "data_locality": float(rng.choice([0.0, 0.3, 0.6, 1.0]))}
        for _ in range(n)
    ]


@given(st.one_of(st.lists(_proc, max_size=24),
                 st.builds(_seeded_processes, st.integers(0, 600),
                           st.integers(0, 2**31 - 1))),
       st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@settings(max_examples=200, deadline=None)
def test_victim_lexsort_matches_scalar_max(processes, max_locality):
    """Production's single pass over the wire dicts picks the victim
    the reference ``max`` over ``ProcessInfo`` objects picks."""
    expected = reference.select_victim(
        (ProcessInfo.from_dict(p) for p in processes),
        max_data_locality=max_locality,
    )
    assert select_victim(
        processes, max_data_locality=max_locality
    ) == expected


# -- first-fit order is the registration order ---------------------------

def test_first_fit_vector_respects_machine_list_order():
    """The paper's first fit scans the machine list in registration
    order; the first rows of the mask must preserve that."""
    core = RegistryCore(ManualClock(), "registry", strategy=first_fit)
    for name in ("late", "alpha", "zulu"):
        core.table.register(name, {})
        core.table.update(name, SystemState.FREE, {})
    assert core._pick_destinations(1, (), None, True) == ["late"]
    assert core._pick_destinations(1, ("late",), None, True) == ["alpha"]
    assert core._pick_destinations(2, ("late",), None, True) == [
        "alpha", "zulu"]
