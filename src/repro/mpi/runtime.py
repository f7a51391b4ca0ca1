"""MPI runtime: the installation's global parameters."""

from __future__ import annotations

from typing import Any

from .comm import Comm
from .group import CommGroup
from .process import MpiProcess

#: LAM/MPI 6.5.9 dynamic process management is slow; the paper measures
#: ~0.3 s to get the initialized process running on the destination.
DEFAULT_SPAWN_LATENCY = 0.3

#: Same-host (shared-memory) message latency.
DEFAULT_LOCAL_LATENCY = 2e-5


class MpiRuntime:
    """The simulated MPI-2 installation on a cluster."""

    spawn_latency = DEFAULT_SPAWN_LATENCY
    local_latency = DEFAULT_LOCAL_LATENCY

    def __init__(self, cluster: Any):
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network

    def start(self, generator, name: str = "mpi-proc"):
        """Run a generator as a simulation process."""
        return self.env.process(generator, name=name)

    def comm_self(self, process: MpiProcess) -> Comm:
        """A COMM_SELF-style single-member communicator for ``process``."""
        group = CommGroup(
            self, [process], label=f"self.{process.name}", internal=True
        )
        return Comm(group, process)
