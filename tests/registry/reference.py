"""Reference implementations of the registry's decision procedure.

The paper's §3.2 procedure spelled out the slow, obvious way — walk the
soft-state records one by one, test each predicate on the record's own
dicts, then pick with ``min``/``sorted``/an rng draw.  Production
(``RegistryCore._pick_destinations``, ``monitor.selector.select_victim``)
computes the same answers over numpy columns; the differential tests
push randomized registries through both and compare pick for pick.

This module deliberately shares no selection code with ``src/``: it
spells its own eligibility predicates and its own sort keys.  When the
two disagree, this side is the specification.
"""

from repro.rules.states import SystemState


# -- registration, one host at a time ----------------------------------
def register_one_by_one(table, hosts, statics):
    """The deployment loop ``Rescheduler.__init__`` ran until PR 23:
    one ``register`` per host, in list order.  ``register_many`` must
    leave the table this leaves."""
    for host, static in zip(hosts, statics):
        table.register(host, static)


# -- eligibility, one record at a time ---------------------------------
def free_hosts(table):
    """Records currently in the FREE state, lease expiry applied."""
    return [
        rec for rec in table.records()
        if table.effective_state(rec) is SystemState.FREE
    ]


def dest_ok(policy, record):
    """Policy destination conditions (paper §5.3) on one candidate."""
    if policy is None or not getattr(policy, "enabled", True):
        return True
    return all(
        cond.holds(record.metrics)
        for cond in getattr(policy, "dest_conditions", ())
    )


def meets_requirements(record, req):
    """Does the candidate own all the resources the victim needs?

    Static fields absent from a record (e.g. a delegated child
    registry) are not held against it; missing *dynamic* metrics fail a
    positive requirement.
    """
    if req is None:
        return True
    static = record.static_info
    min_speed = float(getattr(req, "min_cpu_speed", 0.0) or 0.0)
    if min_speed and static.get("cpu_speed") is not None:
        if float(static["cpu_speed"]) < min_speed:
            return False
    needed = set(getattr(req, "features", ()) or ())
    if needed and static.get("features") is not None:
        offered = {f for f in str(static["features"]).split(",") if f}
        if needed - offered:
            return False
    metrics = record.metrics
    min_mem = int(getattr(req, "min_memory_bytes", 0) or 0)
    if min_mem:
        avail = metrics.get("mem_avail_bytes")
        if avail is None or avail < min_mem:
            return False
    min_disk = int(getattr(req, "min_disk_bytes", 0) or 0)
    if min_disk:
        avail = metrics.get("disk_avail_bytes")
        if avail is None or avail < min_disk:
            return False
    return True


# -- strategies over record lists, with their k cut ---------------------
def first_fit(candidates, rng, k):
    return candidates[:k]


def best_fit(candidates, rng, k):
    ranked = sorted(
        candidates,
        key=lambda rec: (rec.metrics.get("loadavg1", 0.0), rec.host),
    )
    return ranked[:k]


def random_fit(candidates, rng, k):
    if not candidates:
        return []
    if rng is None:
        raise ValueError("random_fit requires an rng")
    if k == 1:
        # The historical single-destination draw.
        return [candidates[int(rng.integers(0, len(candidates)))]]
    take = min(k, len(candidates))
    drawn = rng.choice(len(candidates), size=take, replace=False)
    return [candidates[i] for i in sorted(int(i) for i in drawn)]


STRATEGIES = {
    "first_fit": first_fit,
    "best_fit": best_fit,
    "random_fit": random_fit,
}


def pick_destinations(core, k, exclude, requirements, children):
    """What ``core._pick_destinations`` must return, by record walk.

    Reads the core's table, policy, rng and (by name) its strategy;
    draws from the core's rng exactly as production does, so callers
    rewind the generator between the two sides.
    """
    if k <= 0:
        return []
    eligible = [
        rec for rec in free_hosts(core.table)
        if rec.host not in exclude
        and (children or "@" not in rec.host)
        and dest_ok(core.policy, rec)
        and meets_requirements(rec, requirements)
    ]
    strategy = STRATEGIES[core.strategy.__name__]
    return [rec.host for rec in strategy(eligible, core.rng, k)]


# -- victim -------------------------------------------------------------
def select_victim(processes, max_data_locality=1.0):
    """Latest estimated completion among the movable ``ProcessInfo``
    objects; ties toward the earlier start, then the lower pid, then
    report order."""
    candidates = [
        p for p in processes if p.data_locality <= max_data_locality
    ]
    if not candidates:
        return None
    return max(
        candidates,
        key=lambda p: (p.est_completion, -p.start_time, -p.pid),
    )
