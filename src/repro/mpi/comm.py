"""Communicator handles: point-to-point, collectives, dynamic processes.

Only what HPCM and the workloads use: blocking ``send``/``recv``, the
``bcast``/``reduce``/``allreduce``/``gather`` collectives, and
``spawn`` with the intercommunicator it returns.

All operations are *generators* to be driven with ``yield from`` inside
a simulated process, e.g.::

    yield from comm.send(payload, dest=1, tag=7)
    data = yield from comm.recv(source=ANY_SOURCE, tag=7)
    total = yield from comm.allreduce(x, op=operator.add)

Collectives use binomial trees (log₂ p rounds) like a real MPI, so the
simulated communication cost scales realistically.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import DeadProcessError, RankError, SpawnError
from .group import CommGroup
from .message import ANY_SOURCE, ANY_TAG, Message
from .process import MpiProcess
from .sizeof import message_nbytes

#: Base for internal collective tags (kept clear of user tags >= 0).
_COLL_TAG_BASE = -1000


class Comm:
    """One rank's handle onto an intra-communicator."""

    def __init__(self, group: CommGroup, me: MpiProcess):
        self.group = group
        self.me = me

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.group.rank_of(self.me)

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def env(self):
        return self.me.env

    @property
    def runtime(self):
        return self.group.runtime

    def handle_for(self, proc: MpiProcess) -> "Comm":
        """A handle onto the same group for another member process."""
        return Comm(self.group, proc)

    # -- point-to-point -----------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0):
        """Blocking send (completes when the message is delivered)."""
        group = self.group
        target = group.proc_at(dest)  # validates the rank
        if not target.alive:
            raise DeadProcessError(f"rank {dest} of {group.label} has exited")
        nbytes = message_nbytes(data)
        runtime = self.runtime
        sent_at = self.env.now
        if target.host is self.me.host:
            yield self.env.timeout(runtime.local_latency)
        else:
            yield runtime.network.transfer(
                self.me.host.name,
                target.host.name,
                nbytes,
                label=f"{group.label}:t{tag}",
            )
        # Re-resolve the destination: migration may have replaced the
        # process behind this rank while the bytes were in flight.
        target = group.proc_at(dest)
        msg = Message(
            comm_id=group.id,
            src_rank=self._rank_in(group),
            tag=tag,
            payload=data,
            nbytes=nbytes,
            sent_at=sent_at,
            delivered_at=self.env.now,
        )
        target.mailbox.put(msg)

    def _rank_in(self, group: CommGroup) -> int:
        # For intra-comms the sender is a member; intercomm subclasses
        # override message source ranks via their local group.
        return group.rank_of(self.me) if group.contains(self.me) else -2

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        msg = yield self.me.mailbox.get(
            lambda m: m.matches(self.group.id, source, tag)
        )
        return msg.payload

    # -- collectives ----------------------------------------------------
    def _coll_tag(self) -> int:
        return _COLL_TAG_BASE - self.group.next_coll_seq(self.me)

    def bcast(self, data: Any, root: int = 0):
        """Binomial-tree broadcast; returns the root's data everywhere."""
        rank, size = self.rank, self.size
        tag = self._coll_tag()
        if size == 1:
            return data
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                src = (vrank - mask + root) % size
                data = yield from self.recv(source=src, tag=tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size:
                dst = (vrank + mask + root) % size
                yield from self.send(data, dest=dst, tag=tag)
            mask >>= 1
        return data

    def reduce(self, data: Any, op: Callable[[Any, Any], Any], root: int = 0):
        """Binomial-tree reduction with a commutative ``op``.

        Returns the reduced value at ``root`` and ``None`` elsewhere.
        """
        rank, size = self.rank, self.size
        tag = self._coll_tag()
        if size == 1:
            return data
        vrank = (rank - root) % size
        acc = data
        mask = 1
        while mask < size:
            if vrank & mask:
                dst = (vrank - mask + root) % size
                yield from self.send(acc, dest=dst, tag=tag)
                return None
            src_v = vrank + mask
            if src_v < size:
                src = (src_v + root) % size
                other = yield from self.recv(source=src, tag=tag)
                acc = op(acc, other)
            mask <<= 1
        return acc

    def allreduce(self, data: Any, op: Callable[[Any, Any], Any]):
        """Reduce to rank 0, then broadcast the result."""
        result = yield from self.reduce(data, op, root=0)
        result = yield from self.bcast(result, root=0)
        return result

    def gather(self, data: Any, root: int = 0):
        """Gather one value per rank; list at root, ``None`` elsewhere."""
        rank, size = self.rank, self.size
        tag = self._coll_tag()
        if rank != root:
            yield from self.send(data, dest=root, tag=tag)
            return None
        out: list = [None] * size
        out[root] = data
        for src in range(size):
            if src == root:
                continue
            out[src] = yield from self.recv(source=src, tag=tag)
        return out

    # -- dynamic process management (MPI-2) ------------------------------
    def spawn(
        self,
        entry: Callable,
        hosts: list,
        name: str = "spawned",
        latency: Optional[float] = None,
    ):
        """Create new processes and connect them with an intercommunicator.

        ``entry(ctx)`` must be a generator factory; each child receives a
        :class:`SpawnedContext` with its child-world communicator and the
        parent intercommunicator.  Mirrors ``MPI_Comm_spawn``; the
        runtime's ``spawn_latency`` reproduces LAM/MPI's slow dynamic
        process management (the paper measures ~0.3 s).

        ``latency`` overrides the runtime's spawn latency (e.g. 0 for a
        pre-initialized standby process).  Returns the parent-side
        :class:`Intercomm`.
        """
        runtime = self.runtime
        if not hosts:
            raise SpawnError("no hosts given")
        delay = runtime.spawn_latency if latency is None else latency
        yield self.env.timeout(delay)
        children = []
        for host in hosts:
            if not host.up:
                raise SpawnError(f"host {host.name} is down")
            children.append(
                MpiProcess(runtime, host, name=f"{name}[{len(children)}]")
            )
        child_group = CommGroup(runtime, children, label=f"{name}.world")
        state = _IntercommState(self.group, child_group)
        parent_icomm = Intercomm(state, self.group, child_group, self.me)
        for child in children:
            child_icomm = Intercomm(state, child_group, self.group, child)
            ctx = SpawnedContext(
                runtime=runtime,
                process=child,
                comm=Comm(child_group, child),
                parent=child_icomm,
            )
            runtime.start(entry(ctx), name=child.name)
        return parent_icomm


class _IntercommState:
    """State shared by the two sides of an intercommunicator."""

    def __init__(self, group_a: CommGroup, group_b: CommGroup):
        self.group_a = group_a
        self.group_b = group_b
        #: Bridge group used for message addressing across the two sides:
        #: ranks 0..|A|-1 are A, |A|.. are B.
        runtime = group_a.runtime
        self.bridge = CommGroup(
            runtime,
            list(group_a.procs) + list(group_b.procs),
            label=f"icomm({group_a.label}|{group_b.label})",
            internal=True,
        )


class Intercomm:
    """One process's handle onto an intercommunicator.

    Point-to-point ranks address the *remote* group, per MPI semantics.
    """

    def __init__(
        self,
        state: _IntercommState,
        local_group: CommGroup,
        remote_group: CommGroup,
        me: MpiProcess,
    ):
        self._state = state
        self.local_group = local_group
        self.remote_group = remote_group
        self.me = me
        self._local_comm = Comm(state.bridge, me)

    @property
    def rank(self) -> int:
        return self.local_group.rank_of(self.me)

    def _bridge_rank(self, remote_rank: int) -> int:
        offset = (
            0 if self.remote_group is self._state.group_a
            else self._state.group_a.size
        )
        return offset + remote_rank

    def send(self, data: Any, dest: int, tag: int = 0):
        """Send to rank ``dest`` of the remote group."""
        if not 0 <= dest < self.remote_group.size:
            raise RankError(f"remote rank {dest} out of range")
        yield from self._local_comm.send(
            data, self._bridge_rank(dest), tag=tag
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Receive from the remote group."""
        if source != ANY_SOURCE:
            source = self._bridge_rank(source)
        payload = yield from self._local_comm.recv(source=source, tag=tag)
        return payload


class SpawnedContext:
    """Everything a spawned process needs to run."""

    def __init__(
        self,
        runtime: Any,
        process: MpiProcess,
        comm: Comm,
        parent: Intercomm,
    ):
        self.runtime = runtime
        self.process = process
        self.comm = comm
        self.parent = parent

    @property
    def env(self):
        return self.process.env

    @property
    def host(self):
        return self.process.host

    @property
    def rank(self) -> int:
        return self.comm.rank

