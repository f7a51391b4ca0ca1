"""Real TCP transport for live mode.

"We combine a custom XML based protocol with TCP/IP sockets to form
the communication subsystem of the rescheduler" (paper §3.3) — here
over genuine localhost sockets.  The same XML messages as the
simulation (`repro.protocol.messages`), framed as 1-byte frame kind +
4-byte big-endian length + payload.  Kind ``M`` carries a protocol
message; kind ``S`` carries a migration state blob (JSON header +
pickle), the live analog of HPCM's state transfer.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time
from typing import Any, Optional, Tuple

from ..protocol import messages

FRAME_MESSAGE = b"M"
FRAME_STATE = b"S"

#: Connect timeout (seconds) when none is configured.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Re-attempts after a failed connect (total tries = retries + 1).
DEFAULT_CONNECT_RETRIES = 2
#: First backoff delay; doubles per retry (0.05 s, 0.1 s, 0.2 s, ...).
DEFAULT_RETRY_BACKOFF = 0.05

#: Largest frame payload a peer may announce.  The 4-byte length field
#: can say 4 GiB; a connection that announces more than this is closed
#: instead of buffered.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct(">cI")


def _send_frame(sock: socket.socket, kind: bytes, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(kind, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> Optional[Tuple[bytes, bytes]]:
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    kind, length = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        return None  # the caller closes the connection
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return kind, payload


class LiveEndpoint:
    """A listening TCP endpoint with a decoded-message inbox.

    Incoming protocol messages arrive as ``("msg", (message, sender,
    timestamp))`` items; state blobs as ``("state", (header_dict,
    blob_bytes))``.
    """

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        connect_retries: int = DEFAULT_CONNECT_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ):
        if connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if connect_retries < 0:
            raise ValueError("connect_retries must be >= 0")
        self.name = name
        self.connect_timeout = float(connect_timeout)
        self.connect_retries = int(connect_retries)
        self.retry_backoff = float(retry_backoff)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self.inbox: "queue.Queue" = queue.Queue()
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"endpoint:{name}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- receiving ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            while True:
                frame = _recv_frame(conn)
                if frame is None:
                    return
                kind, payload = frame
                if kind == FRAME_MESSAGE:
                    try:
                        decoded = messages.decode(payload)
                    except messages.ProtocolError:
                        continue  # drop malformed traffic
                    self.inbox.put(("msg", decoded))
                elif kind == FRAME_STATE:
                    try:
                        (header_len,) = struct.unpack_from(">I", payload)
                        if 4 + header_len > len(payload):
                            raise ValueError("truncated state header")
                        header = json.loads(
                            payload[4:4 + header_len].decode("utf-8")
                        )
                    except (struct.error, ValueError):
                        continue  # drop malformed traffic
                    blob = payload[4 + header_len:]
                    self.inbox.put(("state", (header, blob)))

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
        payload = struct.pack(">I", len(head)) + head + blob
        return self._send(address, FRAME_STATE, payload)

    def _send(self, address: str, kind: bytes, payload: bytes) -> bool:
        """Connect (with bounded retry + exponential backoff) and ship
        one frame; False once every attempt failed."""
        try:
            target = self._parse(address)
        except ValueError:
            return False  # unroutable name, e.g. a bare logical host
        delay = self.retry_backoff
        for attempt in range(self.connect_retries + 1):
            try:
                with socket.create_connection(
                    target, timeout=self.connect_timeout
                ) as sock:
                    _send_frame(sock, kind, payload)
                return True
            except OSError:
                if attempt == self.connect_retries or self._closing.is_set():
                    return False
                time.sleep(delay)
                delay *= 2.0
        return False

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
