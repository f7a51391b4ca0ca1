"""Reference implementations the cluster model is held to: load-average
sampling with one process per host, max-min filling over sets, and a
mega-cluster built one host at a time.

**Load average.**  The model the batched host plane replaces — every
host owns a sampler process that wakes each ``sample_interval``
seconds, reads its run queue and calls :meth:`LoadAverage.fold`.
``tests/cluster/`` runs it beside the plane's column fold and requires
the same bytes.

**Max-min filling.**  ``reference_maxmin`` is the progressive filling
``Network._recompute`` ran until PR 19 — residuals and users in dicts
keyed by ``(direction, host)``, the unfrozen flows in a set, a
``sum(1 for ...)`` per resource per round — kept loop for loop (over
flow indices instead of ``Flow`` objects) so the counted filling that
replaced it can be required to return the same floats, not merely
close ones.

**Building analytic hosts.**  ``add_analytic_hosts_one_by_one`` is the
loop ``analysis/overhead.py::_add_analytic_hosts`` ran until PR 23 —
two scalar draws and one ``add_analytic_host`` call per host — kept so
the batch append that replaced it can be required to leave the same
columns, the same specs and the random stream at the same position.
"""

import math

from repro.cluster.loadavg import DEFAULT_SAMPLE_INTERVAL, LoadAverage
from repro.cluster.network import ETHERNET_100MBPS


def sampled_loadavg(env, runqueue_fn,
                    sample_interval=DEFAULT_SAMPLE_INTERVAL):
    """A :class:`LoadAverage` folded by its own periodic sim process
    from ``runqueue_fn()`` readings."""
    loadavg = LoadAverage(sample_interval=sample_interval)

    def sampler():
        while True:
            yield env.timeout(loadavg.sample_interval)
            loadavg.fold(float(runqueue_fn()))

    env.process(sampler(), name="loadavg")
    return loadavg


def per_host_samplers(cluster):
    """Start one reference sampler per backed host of ``cluster``;
    returns ``{host name: LoadAverage}``."""
    return {
        host.name: sampled_loadavg(
            cluster.env, lambda host=host: host.cpu.run_queue,
            sample_interval=cluster.plane.sample_interval,
        )
        for host in cluster
    }


def add_analytic_hosts_one_by_one(cluster, hosts):
    """Grow ``cluster`` to ``hosts`` rows, ws3..wsN, one call each."""
    rng = cluster.rng.stream("analytic-hosts")
    for i in range(3, hosts + 1):
        cluster.add_analytic_host(
            f"ws{i}",
            mean_load=0.05 + 0.5 * float(rng.random()),
            period=2.0,
            phase=2.0 * float(rng.random()),
        )


_EPS = 1e-9


def reference_maxmin(flows, ports, default_bandwidth=ETHERNET_100MBPS):
    """Max-min fair rates by progressive filling.

    ``flows`` is a sequence of ``(src, dst, rate_cap)``, ``ports`` maps
    a host name to its ``(tx_capacity, rx_capacity)``; returns one rate
    per flow, in order.
    """
    rate = [0.0] * len(flows)
    if not flows:
        return rate
    # Residual capacity of every NIC direction in use.
    residual = {}
    users = {}
    for i, (src, dst, _cap) in enumerate(flows):
        for res in (("tx", src), ("rx", dst)):
            if res not in residual:
                tx_capacity, rx_capacity = ports[res[1]]
                residual[res] = (
                    tx_capacity if res[0] == "tx" else rx_capacity
                )
                users[res] = []
            users[res].append(i)

    unfrozen = set(range(len(flows)))
    guard = 0
    while unfrozen:
        guard += 1
        if guard > 10 * len(flows) + 10:
            raise RuntimeError("progressive filling did not converge")
        # Largest equal increment every unfrozen flow can take.
        delta = math.inf
        for res, cap in residual.items():
            n = sum(1 for f in users[res] if f in unfrozen)
            if n:
                delta = min(delta, cap / n)
        for i in unfrozen:
            delta = min(delta, flows[i][2] - rate[i])
        if delta is math.inf:
            break
        delta = max(delta, 0.0)
        # Apply the increment and charge resources.
        for i in unfrozen:
            rate[i] += delta
        for res in residual:
            n = sum(1 for f in users[res] if f in unfrozen)
            residual[res] -= delta * n
        # Freeze flows at capped rate or on a saturated resource.
        newly_frozen = set()
        for i in unfrozen:
            src, dst, cap = flows[i]
            if rate[i] >= cap - _EPS:
                newly_frozen.add(i)
                continue
            for res in (("tx", src), ("rx", dst)):
                if residual[res] <= _EPS * default_bandwidth:
                    newly_frozen.add(i)
                    break
        if not newly_frozen:
            break
        unfrozen -= newly_frozen
    return rate
