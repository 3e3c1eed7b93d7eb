"""The socket-level frontend: external clients over UDS/TCP.

The in-process :class:`~repro.frontend.api.Frontend` is a library call;
this module puts the same admission-controlled submit path behind a real
socket, speaking the repo's one wire format — :mod:`repro.net.wire`
framing (4-byte length, version byte, codec byte) with payloads from the
:mod:`repro.codec` schema registry — so a client that is *not* one of our
forked replicas can drive the service.

Three client-facing records claim the fresh ``48–50`` tag block (the
blocks below 48 belong to wire control, protocol payloads, and durable
records):

* :class:`ClientSubmit` — client → frontend, one keyed operation;
* :class:`ClientReply` — frontend → client, the decided placement
  ``(shard, slot)`` for one request id;
* :class:`ClientRejected` — frontend → client, the admission verdict
  (``"shed"`` / ``"deadline"``) for one request id.

The session protocol is deliberately batch-shaped, matching the service's
run-to-completion execution model: the client streams ``ClientSubmit``
frames and half-closes its write side; the server admits each submit as
it arrives (ticking the frontend clock per configured stride, so
admission behaves exactly like the in-process path) and pushes
``ClientRejected`` frames immediately — sockets are full duplex — then,
at EOF, runs consensus once over everything admitted and streams one
``ClientReply`` per decided request before closing.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..codec.schema import wire_record
from ..errors import ConfigurationError
from ..net.wire import FrameDecoder, WireError, encode_frame_into
from .api import DecidedFuture, Frontend, FrontendReport

__all__ = [
    "ClientSubmit",
    "ClientReply",
    "ClientRejected",
    "FrontendServer",
    "SocketClient",
]


# -- client wire vocabulary -----------------------------------------------------------
#
# Tags 48-50: the client-facing block.  Frozen + slotted and registered in
# the schema, so the binary codec struct-packs them and the golden-frames
# fixture pins the bytes like every other record on the wire.


@wire_record(tag=48)
@dataclass(frozen=True, slots=True)
class ClientSubmit:
    """Client → frontend: submit one keyed operation.

    ``request_id`` is client-chosen and echoed back on the reply or
    rejection; ``op`` is the operation value (``set key := op``)."""

    request_id: int
    key: str
    op: int


@wire_record(tag=49)
@dataclass(frozen=True, slots=True)
class ClientReply:
    """Frontend → client: the submission decided at ``(shard, slot)``;
    ``latency`` is the client-observed latency in slot ticks."""

    request_id: int
    shard: int
    slot: int
    latency: int


@wire_record(tag=50)
@dataclass(frozen=True, slots=True)
class ClientRejected:
    """Frontend → client: the submission was rejected at admission
    (``reason`` is ``"shed"`` or ``"deadline"``)."""

    request_id: int
    reason: str
    shard: int


# -- server ---------------------------------------------------------------------------


class FrontendServer:
    """One admission-controlled frontend behind a listening socket.

    Args:
        frontend_factory: builds a fresh :class:`~repro.frontend.api.
            Frontend` per client session (the service runs to completion
            per session, so state is per-session too).
        path: UDS path to bind (the default transport).
        address: ``(host, port)`` to bind for TCP instead (pass port 0 to
            let the kernel pick; see :attr:`where` after :meth:`bind`).
        tick_every: admission ticks advance once per this many submits —
            approximating arrival pacing for a client that streams a
            whole workload in one burst.
    """

    def __init__(
        self,
        frontend_factory: Callable[[], Frontend],
        path: str | None = None,
        address: tuple[str, int] | None = None,
        tick_every: int = 4,
    ) -> None:
        if (path is None) == (address is None):
            raise ConfigurationError("pass exactly one of path (UDS) or address (TCP)")
        if tick_every < 1:
            raise ConfigurationError("tick_every must be at least 1")
        self.frontend_factory = frontend_factory
        self.path = path
        self.address = address
        self.tick_every = tick_every
        self._listener: socket.socket | None = None
        #: where the listener actually bound (UDS path or ``(host, port)``).
        self.where: Any = None
        self.last_report: FrontendReport | None = None

    # -- lifecycle ---------------------------------------------------------------------

    def bind(self) -> Any:
        """Create and bind the listener; returns the bound address."""
        if self._listener is not None:
            return self.where
        if self.path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.path)
            self.where = self.path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(self.address)
            self.where = listener.getsockname()
        listener.listen(1)
        self._listener = listener
        return self.where

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- serving -----------------------------------------------------------------------

    def serve_once(self, timeout: float = 30.0) -> FrontendReport:
        """Accept one client session, run it to completion, and return the
        session's :class:`~repro.frontend.api.FrontendReport`."""
        self.bind()
        assert self._listener is not None
        self._listener.settimeout(timeout)
        sock, _ = self._listener.accept()
        try:
            return self._session(sock, timeout)
        finally:
            sock.close()

    def serve_once_in_thread(self, timeout: float = 30.0) -> threading.Thread:
        """Run :meth:`serve_once` on a daemon thread (bind first, so the
        client can connect immediately); the session's report lands in
        :attr:`last_report`."""
        self.bind()

        def run() -> None:
            self.last_report = self.serve_once(timeout)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def _session(self, sock: socket.socket, timeout: float) -> FrontendReport:
        sock.settimeout(timeout)
        frontend = self.frontend_factory()
        decoder = FrameDecoder()
        out = bytearray()
        futures: dict[int, DecidedFuture] = {}
        submits = 0
        eof = False
        while not eof:
            data = sock.recv(65536)
            if not data:
                decoder.eof()
                break
            for frame in decoder.feed(data):
                if not isinstance(frame, ClientSubmit):
                    raise WireError(
                        f"unexpected client frame {type(frame).__name__}"
                    )
                if frame.request_id in futures:
                    raise WireError(f"duplicate request id {frame.request_id}")
                try:
                    future = frontend.submit(frame.key, frame.op)
                except ConfigurationError as exc:
                    # duplicate (key, op) command — client error, not ours
                    raise WireError(str(exc)) from None
                futures[frame.request_id] = future
                submits += 1
                if future.rejection is not None:
                    encode_frame_into(
                        ClientRejected(
                            frame.request_id,
                            future.rejection.reason,
                            future.rejection.shard,
                        ),
                        out,
                    )
                if submits % self.tick_every == 0:
                    frontend.tick()
            if out:
                sock.sendall(out)
                del out[:]
        report = frontend.run()
        for request_id, future in futures.items():
            if future.decided:
                encode_frame_into(
                    ClientReply(
                        request_id, future.shard, future.slot, future.latency
                    ),
                    out,
                )
            elif future.rejection is not None and future.rejection.reason != "shed":
                # deadline drops surface at drain time, after EOF.
                encode_frame_into(
                    ClientRejected(
                        request_id, future.rejection.reason, future.rejection.shard
                    ),
                    out,
                )
        if out:
            sock.sendall(out)
        sock.shutdown(socket.SHUT_WR)
        self.last_report = report
        return report


# -- client ---------------------------------------------------------------------------


class SocketClient:
    """A minimal batch client for :class:`FrontendServer`.

    Connects, streams every submit, half-closes the write side, and
    collects replies/rejections until the server closes — the whole
    session in one call (:meth:`submit_all`).
    """

    def __init__(
        self,
        path: str | None = None,
        address: tuple[str, int] | None = None,
        timeout: float = 30.0,
    ) -> None:
        if (path is None) == (address is None):
            raise ConfigurationError("pass exactly one of path (UDS) or address (TCP)")
        self.path = path
        self.address = address
        self.timeout = timeout

    def submit_all(
        self, commands: Iterable[tuple[str, int]]
    ) -> dict[int, ClientReply | ClientRejected]:
        """Run one session: submit ``(key, op)`` pairs (request ids are
        their positions) and return the outcome per request id."""
        if self.path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.path)
        else:
            sock = socket.create_connection(self.address, timeout=self.timeout)
        outcomes: dict[int, ClientReply | ClientRejected] = {}
        try:
            buf = bytearray()
            for request_id, (key, op) in enumerate(commands):
                encode_frame_into(ClientSubmit(request_id, key, op), buf)
            if buf:
                sock.sendall(buf)
            sock.shutdown(socket.SHUT_WR)
            decoder = FrameDecoder()
            while True:
                data = sock.recv(65536)
                if not data:
                    decoder.eof()
                    break
                for frame in decoder.feed(data):
                    if isinstance(frame, (ClientReply, ClientRejected)):
                        outcomes[frame.request_id] = frame
                    else:
                        raise WireError(
                            f"unexpected server frame {type(frame).__name__}"
                        )
        finally:
            sock.close()
        return outcomes
