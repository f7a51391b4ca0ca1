"""Fluid-flow network model with max-min fair bandwidth sharing.

Each host has a full-duplex NIC: a transmit capacity and a receive
capacity (bytes/second).  Active flows (finite transfers or open-ended
streams) share bandwidth according to **max-min fairness** computed by
progressive filling — the standard fluid approximation of TCP-fair
sharing on a switched LAN like the paper's 100 Mbps Ethernet.

Two couplings feed the rest of the system:

* per-host cumulative tx/rx byte counters — the monitor's KB/s sensors
  (paper Figures 6 and 8) differentiate these;
* protocol-processing CPU cost — every byte moved charges
  ``cpu_per_byte`` CPU-seconds to both endpoint hosts via
  :meth:`repro.cluster.cpu.Cpu.set_comm_load`.  This reproduces the
  Table 2 situation where a ~7 MB/s stream makes a host report a ~0.97
  load average while running no compute job.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from ..sim.events import Event

#: 100 Mbps Ethernet in bytes/second (the paper's interconnect).
ETHERNET_100MBPS = 12.5e6

#: Default one-way message latency in seconds.
DEFAULT_LATENCY = 1e-4

_EPS = 1e-9


class _Nic:
    """One direction of a host's NIC — one resource of the max-min
    problem.  ``left`` and ``open`` are progressive filling's scratch:
    the capacity not yet handed out and the unfrozen flows drawing on
    it (``open`` is 0 between recomputes)."""

    __slots__ = ("port", "capacity", "bytes", "left", "open")

    def __init__(self, port: "_HostPort", capacity: float):
        self.port = port
        self.capacity = capacity
        self.bytes = 0.0
        self.left = capacity
        self.open = 0


class _HostPort:
    """NIC state for one host."""

    __slots__ = ("name", "tx", "rx", "cpu", "up", "rate", "listed")

    def __init__(self, name: str, bandwidth: float, cpu: Any):
        self.name = name
        self.tx = _Nic(self, float(bandwidth))
        self.rx = _Nic(self, float(bandwidth))
        self.cpu = cpu  # may be None (e.g. a switch-attached service node)
        self.up = True
        #: Sum of the flow rates through both directions at the last
        #: recompute, and whether the port is in ``Network._loaded``.
        self.rate = 0.0
        self.listed = False


class Flow:
    """One active flow between two hosts.

    ``size`` and ``remaining`` are ``inf`` for open-ended streams
    (``finite`` false).  ``done`` is the completion event, and a
    transfer's own.  ``tx`` and ``rx`` are the two NIC directions the
    flow draws on — the source's transmit half and the destination's
    receive half.
    """

    __slots__ = (
        "src", "dst", "tx", "rx", "size", "remaining", "finite",
        "rate_cap", "rate", "label", "done", "bytes_moved", "closed",
    )

    def __init__(
        self,
        env: Any,
        src: str,
        dst: str,
        nbytes: float,
        rate_cap: float = math.inf,
        label: str = "",
    ):
        if src == dst:
            raise ValueError("flow endpoints must differ")
        if nbytes <= 0:
            raise ValueError("flow size must be positive")
        if rate_cap <= 0:
            raise ValueError("rate cap must be positive")
        self.src = src
        self.dst = dst
        self.tx: Optional[_Nic] = None  # attached by Network._open
        self.rx: Optional[_Nic] = None
        self.size = self.remaining = float(nbytes)
        self.finite = math.isfinite(self.size)
        self.rate_cap = float(rate_cap)
        self.rate = 0.0
        self.label = label
        self.done: Event = Event(env)
        self.bytes_moved = 0.0
        self.closed = False


class HostDownError(ConnectionError):
    """A transfer touched a host that is down."""


class Network:
    """The cluster interconnect.

    Parameters
    ----------
    env:
        Simulation environment.
    default_bandwidth:
        Per-host full-duplex NIC bandwidth (bytes/s).
    latency:
        Fixed one-way startup latency added to each finite transfer.
    cpu_per_byte:
        CPU-seconds charged per byte at each endpoint (protocol
        processing); 0 disables the coupling.
    """

    def __init__(
        self,
        env: Any,
        default_bandwidth: float = ETHERNET_100MBPS,
        latency: float = DEFAULT_LATENCY,
        cpu_per_byte: float = 0.0,
    ):
        if default_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.default_bandwidth = float(default_bandwidth)
        self.latency = float(latency)
        self.cpu_per_byte = float(cpu_per_byte)
        self._ports: Dict[str, _HostPort] = {}
        self._flows: list[Flow] = []
        #: Ports whose CPU carried a nonzero comm load at the last
        #: recompute (the only ones, besides flow endpoints, that a
        #: recompute must revisit), in the order flows first loaded them.
        self._loaded: list[_HostPort] = []
        self._last_update = env._now
        self._wakeup: Optional[Event] = None
        self._wakeup_time = math.inf

    # -- topology -----------------------------------------------------------
    def add_host(
        self, name: str, cpu: Any = None, bandwidth: Optional[float] = None
    ) -> None:
        """Attach a host NIC. ``cpu`` enables protocol-processing coupling."""
        if name in self._ports:
            raise ValueError(f"host {name!r} already attached")
        self._ports[name] = _HostPort(
            name, bandwidth or self.default_bandwidth, cpu
        )

    def set_host_up(self, name: str, up: bool) -> None:
        """Mark a host up/down. Going down kills all its active flows."""
        port = self._ports[name]
        if port.up == up:
            return
        port.up = up
        if not up:
            self._advance()
            victims = [
                f for f in self._flows if name in (f.src, f.dst)
            ]
            for flow in victims:
                self._flows.remove(flow)
                flow.closed = True
                if not flow.done.triggered:
                    flow.done.fail(HostDownError(name))
                    if not flow.finite:  # a transfer's is its caller's
                        flow.done.defuse()
            self._recompute()

    def host_is_up(self, name: str) -> bool:
        return self._ports[name].up

    # -- byte accounting -----------------------------------------------
    def bytes_sent(self, name: str) -> float:
        self._advance()
        return self._ports[name].tx.bytes

    def bytes_received(self, name: str) -> float:
        self._advance()
        return self._ports[name].rx.bytes

    def active_flows(self) -> list:
        return list(self._flows)

    # -- traffic --------------------------------------------------------
    def transfer(
        self, src: str, dst: str, nbytes: float, label: str = ""
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds (with the byte count) once the
        last byte arrives; the transfer starts after the network
        latency.  Fails with :class:`HostDownError` if an endpoint is or
        goes down.  ``nbytes <= 0`` is a pure control signal: latency
        only, no flow.

        A transfer is a callback chain, not a process: latency timeout
        → flow opened → the network's wake-up → ``flow.done``, returned.
        """
        sport = self._port(src)
        dport = self._port(dst)
        flow = Flow(self.env, src, dst, nbytes, label=label) \
            if nbytes > 0 else None
        done = flow.done if flow is not None else Event(self.env)

        def _arrived(_tick: Event) -> None:
            if not (sport.up and dport.up):
                done.fail(HostDownError(dst if sport.up else src))
            elif flow is None:
                done.succeed(0.0)
            else:
                self._open(flow)

        self.env.timeout(self.latency).callbacks.append(_arrived)
        return done

    def open_stream(
        self,
        src: str,
        dst: str,
        rate_cap: float = math.inf,
        label: str = "",
    ) -> Flow:
        """Start an open-ended stream (e.g. a background bulk flow)."""
        sport = self._port(src)
        dport = self._port(dst)
        if not (sport.up and dport.up):
            raise HostDownError(dst if sport.up else src)
        flow = Flow(self.env, src, dst, math.inf, rate_cap=rate_cap,
                    label=label)
        self._open(flow)
        return flow

    def close_stream(self, flow: Flow) -> None:
        """Stop an open-ended stream."""
        if flow.closed:
            return
        self._advance()
        flow.closed = True
        if flow in self._flows:
            self._flows.remove(flow)
        if not flow.done.triggered:
            flow.done.succeed(flow.bytes_moved)
        self._recompute()

    # -- internals ------------------------------------------------------
    def _port(self, name: str) -> _HostPort:
        try:
            return self._ports[name]
        except KeyError:
            raise KeyError(
                f"host {name!r} is not attached to the network"
            ) from None

    def _open(self, flow: Flow) -> None:
        """Put ``flow`` on its endpoints' NICs and re-share."""
        self._advance()
        flow.tx = self._ports[flow.src].tx
        flow.rx = self._ports[flow.dst].rx
        self._flows.append(flow)
        self._recompute()

    def _advance(self) -> None:
        """Account bytes moved since the last update at current rates."""
        now = self.env._now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows:
            moved = flow.rate * dt
            if flow.finite:
                if flow.remaining < moved:
                    moved = flow.remaining
                flow.remaining -= moved
            flow.bytes_moved += moved
            flow.tx.bytes += moved
            flow.rx.bytes += moved

    def _recompute(self) -> None:
        """Assign max-min fair rates, then couple and reschedule."""
        flows = self._flows
        if flows:
            self._fill(flows)
        self._update_cpu_loads()
        self._schedule_next_completion()

    def _fill(self, flows: list) -> None:
        """Progressive filling, counted: every round raises all unfrozen
        flows by the largest equal increment any of them can take, then
        freezes those at their cap or on a NIC direction that ran out.
        Each direction keeps the number of unfrozen flows on it, so a
        round is one pass over the directions and one over the flows.

        A lone flow takes one round, ``0.0 + max(min(tx / 1, rx / 1,
        cap - 0.0), 0.0)``, and is set to that float directly."""
        if len(flows) == 1:
            flow = flows[0]
            flow.rate = max(min(flow.tx.capacity, flow.rx.capacity,
                                flow.rate_cap), 0.0)
            return
        floor = _EPS * self.default_bandwidth
        nics = []
        for flow in flows:
            flow.rate = 0.0
            for nic in (flow.tx, flow.rx):
                if not nic.open:
                    nic.left = nic.capacity
                    nics.append(nic)
                nic.open += 1
        unfrozen = flows
        while unfrozen:
            delta = math.inf
            for nic in nics:
                if nic.open:
                    delta = min(delta, nic.left / nic.open)
            for flow in unfrozen:
                delta = min(delta, flow.rate_cap - flow.rate)
            if delta is math.inf:  # pragma: no cover - defensive
                break
            delta = max(delta, 0.0)
            for flow in unfrozen:
                flow.rate += delta
            for nic in nics:
                nic.left -= delta * nic.open
            still = []
            for flow in unfrozen:
                if (flow.rate >= flow.rate_cap - _EPS
                        or flow.tx.left <= floor or flow.rx.left <= floor):
                    flow.tx.open -= 1
                    flow.rx.open -= 1
                else:
                    still.append(flow)
            if len(still) == len(unfrozen):  # pragma: no cover - defensive
                break
            unfrozen = still
        for nic in nics:
            nic.open = 0

    def _update_cpu_loads(self) -> None:
        per_byte = self.cpu_per_byte
        if per_byte <= 0:
            return
        # Touch only flow endpoints plus ports loaded last recompute
        # (their load may need zeroing) — O(flow endpoints), not
        # O(ports).  A mega-cluster's thousands of idle analytic hosts
        # stay untouched on every recompute.  Ports are visited in list
        # order — last recompute's, then new endpoints in flow order —
        # never in the hash order of their names: the visit pushes CPU
        # wake-ups, and their kernel ``seq`` breaks same-instant ties.
        ports = self._loaded
        for port in ports:
            port.rate = 0.0
        for flow in self._flows:
            for port in (flow.tx.port, flow.rx.port):
                if not port.listed:
                    port.listed = True
                    ports.append(port)
                port.rate += flow.rate
        self._loaded = loaded = []
        for port in ports:
            if port.cpu is not None:
                port.cpu.set_comm_load(port.rate * per_byte)
            if port.rate > 0.0:
                loaded.append(port)
            else:
                port.listed = False

    def _schedule_next_completion(self) -> None:
        delay = math.inf
        for flow in self._flows:
            if flow.finite and flow.rate > 0:
                if self._finished(flow):
                    delay = 0.0
                else:
                    delay = min(delay, flow.remaining / flow.rate)
        if delay is math.inf:
            self._wakeup = None
            self._wakeup_time = math.inf
            return
        when = self.env._now + delay
        if (
            self._wakeup is not None
            and not self._wakeup.processed
            and self._wakeup_time <= when + _EPS
        ):
            return
        wakeup = self.env.timeout(max(delay, 0.0))
        wakeup.callbacks.append(self._on_wakeup)
        self._wakeup = wakeup
        self._wakeup_time = when

    def _finished(self, flow: Flow) -> bool:
        """Done when less than a nanosecond of service remains.

        Timestamps around t≈10³ s have float ulps near 10⁻¹³ s; at
        10⁷ B/s that leaves micro-byte residues after an 'exact'
        completion — tolerating up to 1 ns × rate of residual bytes
        absorbs them without ever dropping a meaningful byte.
        """
        tolerance = 1e-9 * max(flow.rate, self.default_bandwidth * 1e-3)
        return flow.finite and flow.remaining <= tolerance

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return  # stale timer
        self._advance()
        finished = [f for f in self._flows if self._finished(f)]
        for flow in finished:
            self._flows.remove(flow)
            flow.closed = True
            flow.remaining = 0.0
            flow.done.succeed(flow.size)
        self._recompute()
