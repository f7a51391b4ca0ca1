"""Real TCP transport for live mode.

"We combine a custom XML based protocol with TCP/IP sockets to form
the communication subsystem of the rescheduler" (paper §3.3) — here
over genuine localhost sockets.  The same XML messages as the
simulation (`repro.protocol.messages`), framed as 1-byte frame kind +
4-byte big-endian length + payload.  Kind ``M`` carries a protocol
message; kind ``S`` carries a migration state blob (JSON header +
pickle), the live analog of HPCM's state transfer.

One ``selectors`` loop thread per endpoint accepts connections, cuts
the bytes of each into frames and runs timers; one long-lived outbound
connection per peer carries every frame sent to it (docs/live.md,
"Threading model").
"""

from __future__ import annotations

import heapq
import itertools
import json
import queue
import random
import select
import selectors
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, Tuple

from ..protocol import messages

FRAME_MESSAGE = b"M"
FRAME_STATE = b"S"

#: Connect timeout (seconds) of each attempt.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Re-attempts after a failed connect (total tries = retries + 1).
DEFAULT_CONNECT_RETRIES = 2
#: First backoff delay; doubles per retry (0.05 s, 0.1 s, 0.2 s, ...).
DEFAULT_RETRY_BACKOFF = 0.05
#: Each backoff delay is stretched by a random share of itself up to
#: this, so peers that lost one registry do not redial it in step.
RETRY_JITTER = 0.25

#: Largest frame payload a peer may announce.  The 4-byte length field
#: can say 4 GiB; a connection that announces more than this is closed
#: instead of buffered.
MAX_FRAME_BYTES = 64 << 20
#: Unsent bytes a peer that is not reading may have queued here; past
#: this a send to it is refused (``False``) instead of queued.
MAX_OUT_BUFFER_BYTES = 4 << 20

#: Parsed send targets an endpoint remembers; emptied at the bound,
#: as addresses can arrive from the network.
_TARGETS_MAX = 1024

_RECV_BYTES = 1 << 16
_HEADER = struct.Struct(">cI")


class _Peer:
    """One outbound connection and the bytes the kernel has not taken."""

    __slots__ = ("sock", "target", "out", "watched", "broken", "hung_up")

    def __init__(self, sock: socket.socket, target: Tuple[str, int]):
        self.sock = sock
        self.target = target
        self.out = bytearray()
        self.watched = False  # registered for EVENT_WRITE (loop only)
        self.broken = False
        # Nobody answers on a connection we opened, so anything readable
        # on it is the peer's close: ``hung_up(0)`` -- a poll that does
        # not wait -- is non-empty then.
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        self.hung_up = poller.poll


class LiveEndpoint:
    """A listening TCP endpoint with a decoded-message inbox.

    Incoming protocol messages arrive as ``("msg", (message, sender,
    timestamp))`` items; state blobs as ``("state", (header_dict,
    blob_bytes))`` — in ``inbox``, or handed to the ``serve`` handler
    on the loop thread.  ``frames_in``, ``frames_malformed``,
    ``handler_errors``, ``sends_refused`` and ``reconnects`` count what
    would otherwise pass silently.
    """

    def __init__(self, name: str, host: str = "127.0.0.1", port: int = 0):
        self.name = name
        self.frames_in = 0
        self.frames_malformed = 0
        #: Served handlers and timers that raised; the loop goes on.
        self.handler_errors = 0
        self.sends_refused = 0
        self.reconnects = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(socket.SOMAXCONN)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        self.address = f"{self.host}:{self.port}"
        self.inbox: "queue.Queue" = queue.Queue()
        self._handler: Optional[Callable] = None
        #: Guards ``_peers`` and every peer's socket writes and buffer.
        self._lock = threading.Lock()
        #: ``(host, port)`` → its connection; ``None`` once one was lost.
        self._peers: dict = {}
        #: Send address → its ``(host, port)``, up to ``_TARGETS_MAX``.
        self._targets: dict = {}
        self._timers: list = []  # heap of (due, seq, fn, args); loop only
        self._seq = itertools.count()
        #: What other threads ask of the loop: a ``_Peer`` to watch or
        #: retire, a timer tuple to keep, a handler to attach.
        self._requests: deque = deque()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"endpoint:{name}", daemon=True
        )
        self._thread.start()

    # -- the loop -------------------------------------------------------
    def _run(self) -> None:
        try:
            while not self._closing.is_set():
                timeout = self._run_timers()
                for key, _ in self._selector.select(timeout):
                    if isinstance(key.data, bytearray):
                        self._read(key.fileobj, key.data)
                    elif isinstance(key.data, _Peer):
                        self._flush(key.data)
                    elif key.fileobj is self._listener:
                        self._accept()
                    else:
                        self._drain_wake()
        finally:
            self._teardown()

    def _run_timers(self) -> Optional[float]:
        """Take what other threads asked for, run every due timer;
        returns the seconds until the next one (None: no timer)."""
        timers = self._timers
        while True:
            self._take_requests()
            if not timers:
                return None
            wait = timers[0][0] - time.monotonic()
            if wait > 0:
                return wait
            _due, _seq, fn, args = heapq.heappop(timers)
            self._call(fn, *args)

    def _call(self, fn: Callable, *args: Any) -> None:
        """Run a timer or the served handler on the loop: one that
        raises is counted, not allowed to end the loop thread."""
        try:
            fn(*args)
        except Exception:
            self.handler_errors += 1

    def _take_requests(self) -> None:
        while self._requests:
            request = self._requests.popleft()
            if isinstance(request, _Peer):
                self._sync(request)
            elif isinstance(request, tuple):
                heapq.heappush(self._timers, request)
            else:
                self._attach(request)

    def _drain_wake(self) -> None:
        try:
            self._wake_r.recv(_RECV_BYTES)
        except BlockingIOError:
            pass

    def _wake(self) -> None:
        if threading.current_thread() is self._thread:
            return  # the loop takes its own requests before it selects
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # pipe full: a wake-up is already pending; or closed

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` on the loop thread ``delay`` seconds from
        now (any thread may ask)."""
        self._requests.append(
            (time.monotonic() + delay, next(self._seq), fn, args))
        self._wake()

    def serve(self, handler: Callable) -> None:
        """Hand every item to ``handler(item)`` on the loop thread
        instead of queueing it in ``inbox`` — items already queued
        first."""
        self._requests.append(handler)
        self._wake()

    def _attach(self, handler: Callable) -> None:
        self._handler = handler
        while True:
            try:
                item = self.inbox.get_nowait()
            except queue.Empty:
                return
            self._call(handler, item)

    def _teardown(self) -> None:
        with self._lock:
            for peer in self._peers.values():
                if peer is not None:
                    self._requests.append(peer)
                    peer.broken = True
            self._peers.clear()
        self._take_requests()  # closes every broken peer
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()

    # -- receiving ------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # BlockingIOError: backlog drained
            conn.setblocking(False)
            self._selector.register(conn, selectors.EVENT_READ, bytearray())

    def _hang_up(self, conn: socket.socket) -> None:
        self._selector.unregister(conn)
        conn.close()

    def _read(self, conn: socket.socket, buf: bytearray) -> None:
        """Append what arrived and cut every complete frame out of the
        connection's buffer, in place."""
        try:
            chunk = conn.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._hang_up(conn)
            return
        buf += chunk
        offset = 0
        while len(buf) - offset >= _HEADER.size:
            kind, length = _HEADER.unpack_from(buf, offset)
            if length > MAX_FRAME_BYTES:
                self.frames_malformed += 1
                self._hang_up(conn)
                return
            end = offset + _HEADER.size + length
            if end > len(buf):
                break
            self._deliver(kind, bytes(buf[offset + _HEADER.size:end]))
            offset = end
        del buf[:offset]

    def _deliver(self, kind: bytes, payload: bytes) -> None:
        try:
            if kind == FRAME_MESSAGE:
                item = ("msg", messages.decode(payload))
            elif kind == FRAME_STATE:
                (header_len,) = struct.unpack_from(">I", payload)
                if 4 + header_len > len(payload):
                    raise ValueError("truncated state header")
                header = json.loads(payload[4:4 + header_len].decode("utf-8"))
                item = ("state", (header, payload[4 + header_len:]))
            else:
                raise ValueError("unknown frame kind")
        except (ValueError, struct.error):
            # Frames from the network are not trusted: a message decode
            # refuses (ProtocolError is a ValueError), a bad state header.
            self.frames_malformed += 1
            return
        self.frames_in += 1
        if self._handler is None:
            self.inbox.put(item)
        else:
            self._call(self._handler, item)

    def recv(self, timeout: Optional[float] = None):
        """Next inbox item or None on timeout."""
        try:
            return self.inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    # -- sending --------------------------------------------------------
    @staticmethod
    def _parse(address: str) -> Tuple[str, int]:
        """``[name@]host:port`` → ``(host, port)``.

        Hierarchical registries label themselves ``name@host:port`` so a
        parent can recognize registry records by the ``@``; routing only
        needs the socket part.
        """
        address = address.rpartition("@")[2]
        host, _, port = address.rpartition(":")
        return host, int(port)

    def send_message(self, address: str, msg: Any, timestamp: float) -> bool:
        """Fire-and-forget protocol message; False if unreachable."""
        data = messages.encode(msg, sender=self.address,
                               timestamp=timestamp)
        return self._send(address, FRAME_MESSAGE, data)

    def send_state(self, address: str, header: dict, blob: bytes) -> bool:
        """Ship a migration state blob."""
        head = json.dumps(header).encode("utf-8")
        return self._send(address, FRAME_STATE,
                          struct.pack(">I", len(head)), head, blob)

    def _send(self, address: str, kind: bytes, *parts: bytes) -> bool:
        """Write one frame on the peer's connection, (re)connecting
        with bounded retry and jittered exponential backoff; False once
        every attempt failed or the peer's backlog is over its cap."""
        target = self._targets.get(address)
        if target is None:
            try:
                target = self._parse(address)
            except ValueError:
                return False  # unroutable name, e.g. a bare logical host
            if len(self._targets) >= _TARGETS_MAX:
                self._targets.clear()
            self._targets[address] = target
        frame = b"".join(
            (_HEADER.pack(kind, sum(map(len, parts))), *parts))
        delay = DEFAULT_RETRY_BACKOFF
        for attempt in range(DEFAULT_CONNECT_RETRIES + 1):
            if self._closing.is_set():
                return False
            peer = None
            try:
                peer = self._peer(target)
                return self._write(peer, frame)
            except OSError:  # refused, timed out, reset
                if peer is not None:
                    self._retire(peer)
                if attempt < DEFAULT_CONNECT_RETRIES:
                    time.sleep(delay * (1.0 + RETRY_JITTER * random.random()))
                    delay *= 2.0
        return False

    def _peer(self, target: Tuple[str, int]) -> _Peer:
        """The open connection to ``target``, dialled if there is none
        or the peer hung the last one up."""
        with self._lock:
            peer = self._peers.get(target)
            # Under the lock: one poll object takes one caller at a
            # time, and the loop closes no socket of ``_peers`` here.
            if peer is not None and not peer.hung_up(0):
                return peer
        if peer is not None:
            self._retire(peer)
        sock = socket.create_connection(target,
                                        timeout=DEFAULT_CONNECT_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        with self._lock:
            peer = self._peers.get(target)
            if peer is None and not self._closing.is_set():
                if target in self._peers:
                    self.reconnects += 1
                peer = self._peers[target] = _Peer(sock, target)
                return peer
        sock.close()  # another thread dialled first, or we are closing
        if peer is None:
            raise OSError("endpoint closed")
        return peer

    def _write(self, peer: _Peer, frame: bytes) -> bool:
        """Write what the kernel takes now and queue the rest for the
        loop, so that no sender — the loop least of all — waits for a
        peer to read."""
        with self._lock:
            if peer.broken:
                raise OSError("connection lost")
            if peer.out:
                if len(peer.out) > MAX_OUT_BUFFER_BYTES:
                    self.sends_refused += 1
                    return False
                peer.out += frame
                return True
            try:
                sent = peer.sock.send(frame)
            except BlockingIOError:
                sent = 0
            if sent < len(frame):
                peer.out += memoryview(frame)[sent:]
                self._requests.append(peer)
                self._wake()
        return True

    def _retire(self, peer: _Peer) -> None:
        """Forget a lost connection; the loop closes it."""
        with self._lock:
            peer.broken = True
            if self._peers.get(peer.target) is peer:
                self._peers[peer.target] = None
        self._requests.append(peer)
        self._wake()

    def _sync(self, peer: _Peer) -> None:
        """Bring the selector in line with a peer: watch it while it has
        a backlog, unregister and close it once it is broken."""
        with self._lock:
            want = bool(peer.out) and not peer.broken
            if want != peer.watched:
                peer.watched = want
                if want:
                    self._selector.register(
                        peer.sock, selectors.EVENT_WRITE, peer)
                else:
                    self._selector.unregister(peer.sock)
            if peer.broken:
                peer.sock.close()

    def _flush(self, peer: _Peer) -> None:
        """The peer's socket is writable again: drain its backlog."""
        try:
            with self._lock:
                del peer.out[:peer.sock.send(peer.out)]
        except BlockingIOError:
            pass
        except OSError:
            self._retire(peer)  # and the loop's next turn closes it
        if not peer.out:
            self._sync(peer)

    def close(self) -> None:
        """Stop the loop; it closes every socket on its way out."""
        self._closing.set()
        self._wake()
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=DEFAULT_CONNECT_TIMEOUT)
