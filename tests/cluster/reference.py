"""Reference implementation of load-average sampling: one process per
host.

The model the batched host plane replaces — every host owns a sampler
process that wakes each ``sample_interval`` seconds, reads its run
queue and calls :meth:`LoadAverage.fold`.  ``tests/cluster/`` runs it
beside the plane's column fold and requires the same bytes.
"""

from repro.cluster.loadavg import DEFAULT_SAMPLE_INTERVAL, LoadAverage


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
