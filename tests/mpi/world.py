"""A world of ranks for the MPI tests, built from the runtime's parts."""

from types import SimpleNamespace

from repro.mpi import Comm, CommGroup, MpiProcess


def launch(mpi, entry, hosts, name="app"):
    """Start the generator ``entry(ctx)`` on each host, ranks in host
    order; ``ctx`` holds the rank's ``comm``, ``process``, ``rank``,
    ``size``, ``env`` and ``host``.  Returns the world's group and the
    ranks' sim processes."""
    procs = [MpiProcess(mpi, host, name=f"{name}[{i}]")
             for i, host in enumerate(hosts)]
    world = CommGroup(mpi, procs, label=f"{name}.world")
    ranks = []
    for proc in procs:
        comm = Comm(world, proc)
        ctx = SimpleNamespace(comm=comm, process=proc, rank=comm.rank,
                              size=comm.size, env=proc.env, host=proc.host)
        ranks.append(mpi.start(entry(ctx), name=proc.name))
    return world, ranks


def run(cluster, ranks):
    """Run until every rank has returned (hosts run endless samplers,
    so the queue never drains); their return values, in rank order."""
    cluster.env.run(until=cluster.env.all_of(ranks))
    return [rank.value for rank in ranks]
