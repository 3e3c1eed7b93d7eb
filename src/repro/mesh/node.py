"""The mesh node worker: one protocol, one socket per hub group.

:class:`MeshNodeWorker` extends the star topology's
:class:`~repro.net.node.NodeWorker` with hub steering: the node holds one
connection per hub (``socks[0]`` is hub 0, the orchestrator) and routes
each outgoing data frame to the hub owning its shard, while everything
control-plane — decisions, outputs, service calls, log records, and every
unattributable payload — stays pinned to hub 0, where the orchestrator's
event stream and services live.  Frame *semantics* are untouched: the
worker reuses the base class's ``_dispatch`` for inbound frames and
``_write_to`` for outbound ones, so the mesh cannot drift from the star
on anything but which socket a frame takes.

The failure contract is deliberately loud: EOF on the hub-0 link means
the run is over (exit 0, as on the star), but EOF on a *data* hub link is
:data:`EXIT_HUB_LOST` — a node that lost its shard traffic must not keep
limping on the control link, and the distinct exit code lets the
orchestrator's post-mortem attribute the death to the hub, not the node.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from typing import Any

from ..errors import SimulationError
from ..net.faults import NODE_ENV_MARKER, ProcessCrash
from ..net.node import (
    EXIT_CONNECT_FAILED,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_RECV_TIMEOUT,
    NodeWorker,
    connect_with_retry,
)
from ..net.wire import (
    CODEC_BINARY,
    CODEC_PICKLE,
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    Hello,
    MsgSend,
)
from ..codec.binary import wrap_opaque
from ..runtime.protocol import Protocol
from ..shard.router import UNATTRIBUTED, hub_of, shard_of_payload
from ..types import ProcessId

__all__ = ["EXIT_HUB_LOST", "MeshNodeWorker", "mesh_node_main"]

#: The node lost a data-hub connection mid-run.  Distinct from every
#: star-topology exit code so hub failures attribute to the hub.
EXIT_HUB_LOST = 6


class MeshNodeWorker(NodeWorker):
    """A node worker steering data frames across several hub links.

    Args:
        socks: one connected socket per hub, indexed by hub; ``socks[0]``
            is the orchestrator and becomes the base class's ``sock`` (so
            every inherited control-plane write lands on hub 0).
        shards: shard count for payload attribution.
        route: ``"direct"`` steers by shard; ``"hub0"`` sends everything
            to hub 0 (exercising the hub-to-hub relay path end to end).
    """

    def __init__(
        self,
        pid: ProcessId,
        protocol: Protocol,
        socks: list[socket.socket],
        shards: int,
        route: str = "direct",
        codec: int = CODEC_PICKLE,
        max_frame: int = DEFAULT_MAX_FRAME,
        crash: ProcessCrash | None = None,
    ) -> None:
        if not socks:
            raise SimulationError("a mesh node needs at least the hub-0 socket")
        super().__init__(pid, protocol, socks[0], codec, max_frame, crash)
        self.socks = socks
        self.shards = shards
        self.route = route

    def _data_sock(self, payload: Any) -> socket.socket:
        """The hub link this payload travels on (attribution pre-wrap:
        the payload is still a real envelope chain here, so steering never
        needs to peek encoded bytes on the node side)."""
        if self.route != "direct" or len(self.socks) == 1:
            return self.socks[0]
        shard = shard_of_payload(payload, self.shards)
        if shard == UNATTRIBUTED:
            return self.socks[0]
        return self.socks[hub_of(shard, len(self.socks))]

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        sock = self._data_sock(payload)
        if self.codec == CODEC_BINARY:
            if payload is not self._cached_payload:
                self._cached_payload = payload
                self._cached_opaque = wrap_opaque(payload)
            payload = self._cached_opaque
        self._write_to(sock, MsgSend(src, dst, payload, depth))

    def run(self, recv_timeout: float = 60.0) -> int:
        """Select over every hub link; frames dispatch exactly as on the
        star.  The receive timeout spans *all* links — any inbound frame
        re-arms it — because an idle data hub is normal while the failsafe
        still has to catch a wholly dead cluster."""
        sel = selectors.DefaultSelector()
        try:
            for hub, sock in enumerate(self.socks):
                sock.settimeout(recv_timeout)
                sel.register(
                    sock, selectors.EVENT_READ, (hub, FrameDecoder(self.max_frame))
                )
            for sock in self.socks:
                self._write_to(sock, Hello(self.pid, self.codec))
            self._hello_sent = True
            self._sent = 0
            deadline = time.monotonic() + recv_timeout
            while True:
                now = time.monotonic()
                if now >= deadline:
                    return EXIT_RECV_TIMEOUT
                for key, _ in sel.select(min(deadline - now, 0.5)):
                    hub, decoder = key.data
                    try:
                        data = key.fileobj.recv(65536)
                    except TimeoutError:
                        continue
                    except OSError:
                        return EXIT_OK if hub == 0 else EXIT_HUB_LOST
                    if not data:
                        # Hub 0 closing = orderly end of run; a data hub
                        # closing = the hub died out from under us.
                        return EXIT_OK if hub == 0 else EXIT_HUB_LOST
                    deadline = time.monotonic() + recv_timeout
                    for msg in decoder.feed(data):
                        if not self._dispatch(msg):
                            return EXIT_OK
        finally:
            sel.close()


def mesh_node_main(
    pid: ProcessId,
    protocol: Protocol | None,
    endpoints: list[tuple[int, Any]],
    shards: int,
    route: str = "direct",
    codec: int = CODEC_PICKLE,
    max_frame: int = DEFAULT_MAX_FRAME,
    crash: ProcessCrash | None = None,
    recv_timeout: float = 60.0,
    build: Any = None,
) -> None:
    """Entry point of a forked mesh worker (never returns) — the mesh
    counterpart of :func:`~repro.net.node.node_main`, dialing every hub
    endpoint in index order before running."""
    os.environ[NODE_ENV_MARKER] = "1"
    code = EXIT_INTERNAL_ERROR
    socks: list[socket.socket] = []
    try:
        if build is not None:
            protocol = build()
        for family, address in endpoints:
            socks.append(connect_with_retry(family, address))
        worker = MeshNodeWorker(
            pid, protocol, socks, shards, route, codec, max_frame, crash
        )
        code = worker.run(recv_timeout)
    except SimulationError:
        code = EXIT_CONNECT_FAILED
    except OSError:
        code = EXIT_OK  # a hub went away mid-write: the run is over
    except Exception:
        code = EXIT_INTERNAL_ERROR
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
    os._exit(code)
