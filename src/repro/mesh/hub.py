"""The hub group worker: one shard-slice hub as its own process.

A mesh run forks one :class:`HubWorker` per hub group ``1..hubs-1`` (hub 0
stays inside the orchestrator).  Each worker owns a listener that three
kinds of peers dial:

* **nodes** — every node holds one connection per hub and opens with the
  standard :class:`~repro.net.wire.Hello`; the worker routes their
  ``MsgSend`` frames exactly like the star hub (link-authenticated source,
  projected link plan, seeded jitter, delivery batching);
* **peer hubs** — open with :class:`~repro.mesh.wire.HubHello`; frames for
  a shard this hub owns arrive as :class:`~repro.mesh.wire.MsgRelay` and
  are delivered locally without re-checking ownership (attribution is
  deterministic, so a re-check could only agree — skipping it also makes
  relay loops impossible);
* **the orchestrator** — one control link (``HubHello(CONTROL_LINK)``)
  carrying lifecycle traffic (``Stop`` down, :class:`HubReady`/
  :class:`HubStats`/:class:`HubSaturated` up) and doubling as the relay
  route of last resort: a frame for a hub with no dialable endpoint goes
  up the control link and the orchestrator re-relays it.

What the worker deliberately does *not* do is observability: no event
sink, no payload materialization — binary payloads stay
:class:`~repro.codec.Opaque` spans end to end (``peek_shard`` reads the
shard tag off the raw bytes).  That is the mesh's scaling lever on a
single machine: hub 0 keeps the full event stream for the control plane,
data hubs do nothing per frame but route bytes.  Per-hub counters come
back in one :class:`HubStats` frame at teardown instead.
"""

from __future__ import annotations

import heapq
import os
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Any

from ..codec import CODEC_IDS
from ..net.cluster import DEFAULT_HIGH_WATER, materialize_for
from ..net.faults import LinkPlan
from ..net.node import (
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_RECV_TIMEOUT,
    connect_with_retry,
)
from ..net.wire import (
    CODEC_BINARY,
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameTooLarge,
    Hello,
    MsgDeliver,
    MsgSend,
    Stop,
    batch_frames,
    encode_frame_into,
)
from ..errors import SimulationError
from ..shard.router import UNATTRIBUTED, hub_of, shard_of_payload
from ..sim.latency import LognormalLatency
from ..types import ProcessId
from .topology import hub_rng
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats, MsgRelay

__all__ = ["HubLink", "HubWorker", "hub_worker_main", "serve_hub"]

#: ``(family, address)`` of a dialable hub listener, or ``None`` when the
#: hub is reachable only through the orchestrator's control link.
Endpoint = tuple[int, Any] | None


class HubLink:
    """One dialed hub-facing link: framed sends through a reusable buffer.

    The dial-side counterpart of a hub's accepted connections — mesh nodes
    hold one per hub, hubs dial peers and the orchestrator dials its
    control links.  ``send`` reports failure instead of raising so callers
    decide per link whether a dead peer is fatal.
    """

    __slots__ = ("sock", "decoder", "codec", "max_frame", "_buf")

    def __init__(
        self,
        sock: socket.socket,
        codec: int,
        max_frame: int = DEFAULT_MAX_FRAME,
        lazy: bool = True,
    ) -> None:
        self.sock = sock
        self.codec = codec
        self.max_frame = max_frame
        self.decoder = FrameDecoder(max_frame, lazy=lazy)
        self._buf = bytearray()

    @classmethod
    def dial(
        cls,
        family: int,
        address: Any,
        hello: Any,
        codec: int,
        max_frame: int = DEFAULT_MAX_FRAME,
        lazy: bool = True,
    ) -> "HubLink":
        """Connect, announce with ``hello``, return the live link.

        Raises:
            SimulationError: the endpoint never accepted.
        """
        sock = connect_with_retry(family, address)
        link = cls(sock, codec, max_frame, lazy)
        link.send(hello)
        return link

    def send(self, msg: Any) -> bool:
        buf = self._buf
        buf.clear()
        try:
            encode_frame_into(msg, buf, self.codec, self.max_frame)
            self.sock.sendall(buf)
            return True
        except OSError:
            return False

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class _HubConn:
    """One accepted (or dialed) connection, classified by its first frame."""

    sock: socket.socket
    decoder: FrameDecoder
    kind: str = "pending"  # pending | node | peer | control
    pid: ProcessId = -1
    hub: int = -2
    codec: int = CODEC_BINARY


class HubWorker:
    """The event loop of one hub group.

    Args:
        index: this hub's index (``>= 1``; hub 0 is the orchestrator).
        hubs: total hub groups in the mesh.
        shards: shard count (attribution needs it to bound shard tags).
        nodes: node connections to expect before reporting
            :class:`~repro.mesh.wire.HubReady`.
        listener: pre-bound listening socket (bound by the orchestrator
            before the fork, or by :func:`serve_hub` for a remote hub).
        endpoints: per-hub dialable addresses for peer relays (``None``
            entries route through the orchestrator's control link).
        seed: cluster seed; this hub draws from :func:`~repro.mesh.
            topology.hub_rng` stream ``index``.
        link_plan: the *full* cluster plan — projected onto this hub here,
            so per-fault budgets count only frames this hub routed.
    """

    def __init__(
        self,
        index: int,
        hubs: int,
        shards: int,
        nodes: int,
        listener: socket.socket,
        endpoints: list[Endpoint],
        seed: int = 0,
        mean_delay: float = 0.0005,
        jitter: str = "uniform",
        codec: int = CODEC_BINARY,
        max_frame: int = DEFAULT_MAX_FRAME,
        link_plan: LinkPlan | None = None,
        high_water: int = DEFAULT_HIGH_WATER,
    ) -> None:
        self.index = index
        self.hubs = hubs
        self.shards = shards
        self.nodes = nodes
        self.listener = listener
        self.endpoints = endpoints
        self.rng = hub_rng(seed, index)
        self.mean_delay = mean_delay
        self._lognormal = (
            LognormalLatency(mean_delay) if jitter == "lognormal" and mean_delay > 0
            else None
        )
        self.codec = codec
        self.max_frame = max_frame
        self.plan = (link_plan if link_plan is not None else LinkPlan()).project(index)
        self.high_water = high_water
        self._saturated = False
        # HubStats counters
        self.frames = 0  # frames written to node sockets
        self.bytes = 0  # bytes written to node sockets
        self.sent = 0  # MsgSend frames ingressed from nodes
        self.delivered = 0  # deliveries written (per message, not per frame)
        self.relayed = 0  # frames forwarded toward another hub
        self.saturation_episodes = 0
        self._node_conns: dict[ProcessId, _HubConn] = {}
        self._peer_conns: dict[int, _HubConn] = {}
        self._control: _HubConn | None = None
        self._ready_sent = False
        self._sel: selectors.BaseSelector | None = None
        self._send_buf = bytearray()
        # delay heap entries: (due, seq, dst, sender, payload, depth)
        self._heap: list[tuple[float, int, ProcessId, ProcessId, Any, int]] = []
        self._seq = 0

    # -- wiring ----------------------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except (TimeoutError, BlockingIOError, OSError):
            return
        sock.settimeout(1.0)
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _HubConn(sock, FrameDecoder(self.max_frame, lazy=True))
        assert self._sel is not None
        self._sel.register(sock, selectors.EVENT_READ, conn)

    def _classify(self, conn: _HubConn, msg: Any) -> None:
        """First frame on a fresh connection decides what it is."""
        if isinstance(msg, Hello):
            conn.kind = "node"
            conn.pid = msg.pid
            conn.codec = msg.codec if msg.codec in CODEC_IDS else self.codec
            old = self._node_conns.get(msg.pid)
            if old is not None:  # a restarted node re-dialed this hub
                self._drop(old)
            self._node_conns[msg.pid] = conn
            self._maybe_ready()
        elif isinstance(msg, HubHello):
            conn.codec = msg.codec if msg.codec in CODEC_IDS else self.codec
            if msg.hub == CONTROL_LINK:
                conn.kind = "control"
                self._control = conn
                self._maybe_ready()
            else:
                conn.kind = "peer"
                conn.hub = msg.hub
                self._peer_conns.setdefault(msg.hub, conn)
        else:
            self._drop(conn)

    def _maybe_ready(self) -> None:
        if (
            not self._ready_sent
            and self._control is not None
            and len(self._node_conns) >= self.nodes
        ):
            self._ready_sent = True
            self._write_conn(self._control, HubReady(self.index, len(self._node_conns)))

    def _drop(self, conn: _HubConn) -> None:
        if self._sel is not None:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn.kind == "node" and self._node_conns.get(conn.pid) is conn:
            del self._node_conns[conn.pid]
        elif conn.kind == "peer" and self._peer_conns.get(conn.hub) is conn:
            del self._peer_conns[conn.hub]
        elif conn.kind == "control" and self._control is conn:
            self._control = None

    # -- frame plumbing --------------------------------------------------------------

    def _write_conn(self, conn: _HubConn, msg: Any) -> bool:
        buf = self._send_buf
        buf.clear()
        try:
            encode_frame_into(
                materialize_for(conn.codec, msg), buf, conn.codec, self.max_frame
            )
            conn.sock.sendall(buf)
            return True
        except FrameTooLarge:
            raise
        except OSError:
            self._drop(conn)
            return False

    def _write_node(self, conn: _HubConn, msgs: list[Any]) -> bool:
        """Coalesce several frames to one node in a single ``sendall``."""
        buf = self._send_buf
        buf.clear()
        codec = conn.codec
        for msg in msgs:
            encode_frame_into(
                materialize_for(codec, msg), buf, codec, self.max_frame
            )
        try:
            conn.sock.sendall(buf)
            self.frames += len(msgs)
            self.bytes += len(buf)
            return True
        except OSError:
            self._drop(conn)
            return False

    def _jitter(self) -> float:
        if self._lognormal is not None:
            return self._lognormal.sample(self.rng, 0, 0)
        return self.rng.uniform(0.5, 1.5) * self.mean_delay

    def _schedule(
        self, dst: ProcessId, sender: ProcessId, payload: Any, depth: int, delay: float
    ) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap,
            (time.monotonic() + delay, self._seq, dst, sender, payload, depth),
        )
        if not self._saturated and len(self._heap) >= self.high_water:
            self._saturated = True
            self.saturation_episodes += 1
            if self._control is not None:
                self._write_conn(
                    self._control,
                    HubSaturated(self.index, len(self._heap), self.high_water),
                )

    def _ingress(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        """One ``MsgSend`` off a node link: attribute, keep or relay."""
        self.sent += 1
        shard = shard_of_payload(payload, self.shards)
        owner = 0 if shard == UNATTRIBUTED else hub_of(shard, self.hubs)
        if owner != self.index:
            self._relay(owner, MsgRelay(src, dst, payload, depth))
            return
        self._deliver_in(src, dst, payload, depth)

    def _deliver_in(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        """Queue one owned message for delivery (fault plan + jitter)."""
        for extra in self.plan.route(src, dst, self.rng):
            base = 0.0 if dst == src else self._jitter()
            self._schedule(dst, src, payload, depth, base + extra)

    def _relay(self, owner: int, msg: MsgRelay) -> None:
        self.relayed += 1
        conn = self._peer_conns.get(owner)
        if conn is None and owner != 0:
            conn = self._dial_peer(owner)
        if conn is None:
            conn = self._control  # route of last resort: up to the orchestrator
        if conn is not None:
            try:
                self._write_conn(conn, msg)
            except FrameTooLarge:
                pass  # relay framing pushed it over the cap: drop the message

    def _dial_peer(self, owner: int) -> _HubConn | None:
        endpoint = (
            self.endpoints[owner] if 0 <= owner < len(self.endpoints) else None
        )
        if endpoint is None:
            return None
        try:
            link = HubLink.dial(
                endpoint[0],
                endpoint[1],
                HubHello(self.index, self.codec),
                self.codec,
                self.max_frame,
            )
        except SimulationError:
            return None
        conn = _HubConn(link.sock, link.decoder, "peer", hub=owner, codec=self.codec)
        self._peer_conns[owner] = conn
        assert self._sel is not None
        self._sel.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def _deliver_due(self, now: float) -> None:
        if self._saturated and len(self._heap) <= self.high_water // 2:
            self._saturated = False  # episode over: re-arm the latch
        batches: dict[ProcessId, list[tuple[ProcessId, Any, int]]] = {}
        order: list[ProcessId] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, dst, sender, payload, depth = heapq.heappop(self._heap)
            if dst not in batches:
                batches[dst] = []
                order.append(dst)
            batches[dst].append((sender, payload, depth))
        for dst in order:
            conn = self._node_conns.get(dst)
            if conn is None:
                continue  # dead or never-connected destination: drop, as the star does
            entries = batches[dst]
            frames, per_frame = batch_frames(entries)
            try:
                if self._write_node(conn, frames):
                    self.delivered += len(entries)
            except FrameTooLarge:
                # huge payloads: fall back to one frame per message
                for chunk in per_frame:
                    for entry in chunk:
                        live = self._node_conns.get(dst)
                        if live is None:
                            break
                        try:
                            if self._write_node(live, [MsgDeliver(*entry)]):
                                self.delivered += 1
                        except FrameTooLarge:
                            pass  # a single oversized frame: drop that message

    # -- frame handling --------------------------------------------------------------

    def _handle(self, conn: _HubConn, msg: Any) -> int | None:
        """Process one frame; a non-``None`` return exits the run loop."""
        if conn.kind == "pending":
            self._classify(conn, msg)
            return None
        if conn.kind == "node":
            if isinstance(msg, MsgSend):
                # src override: link-authenticated sender, as at the star hub
                self._ingress(conn.pid, msg.dst, msg.payload, msg.depth)
            # Control-plane frames belong on the node's hub-0 link; anything
            # else arriving here is misdirected and dropped.
            return None
        # control or peer link
        if isinstance(msg, MsgRelay):
            # Ownership was decided by the relaying hub with the same
            # deterministic attribution — deliver locally, never re-relay
            # (which also makes relay loops structurally impossible).
            self._deliver_in(msg.src, msg.dst, msg.payload, msg.depth)
        elif isinstance(msg, Stop) and conn.kind == "control":
            self._write_conn(
                conn,
                HubStats(
                    self.index,
                    self.frames,
                    self.bytes,
                    self.sent,
                    self.delivered,
                    self.relayed,
                    self.saturation_episodes,
                ),
            )
            return EXIT_OK
        return None

    def _pump(self, conn: _HubConn) -> int | None:
        try:
            data = conn.sock.recv(65536)
        except TimeoutError:
            return None
        except OSError:
            data = b""
        if not data:
            was_control = conn.kind == "control"
            self._drop(conn)
            # Orchestrator gone without a Stop: the run is over either way.
            return EXIT_OK if was_control else None
        for msg in conn.decoder.feed(data):
            code = self._handle(conn, msg)
            if code is not None:
                return code
        return None

    # -- the run ---------------------------------------------------------------------

    def run(self, deadline_seconds: float = 120.0) -> int:
        """Accept, route and deliver until Stop (or the failsafe deadline).

        The deadline exists for the same reason as the node's receive
        timeout: an orchestrator that died without closing its sockets
        must not wedge a forked hub forever.
        """
        sel = selectors.DefaultSelector()
        self._sel = sel
        self.listener.settimeout(0.0)
        sel.register(self.listener, selectors.EVENT_READ, None)
        deadline = time.monotonic() + deadline_seconds
        try:
            while True:
                now = time.monotonic()
                if now >= deadline:
                    return EXIT_RECV_TIMEOUT
                wait = min(deadline - now, 0.05)
                if self._heap:
                    wait = min(wait, max(self._heap[0][0] - now, 0.0))
                for key, _ in sel.select(wait):
                    if key.data is None:
                        self._accept()
                    else:
                        code = self._pump(key.data)
                        if code is not None:
                            return code
                self._deliver_due(time.monotonic())
        finally:
            for conn in list(self._node_conns.values()):
                self._drop(conn)
            for conn in list(self._peer_conns.values()):
                self._drop(conn)
            if self._control is not None:
                self._drop(self._control)
            sel.close()
            self._sel = None
            try:
                self.listener.close()
            except OSError:
                pass


def hub_worker_main(
    index: int,
    hubs: int,
    shards: int,
    nodes: int,
    listener: socket.socket,
    endpoints: list[Endpoint],
    seed: int,
    mean_delay: float,
    jitter: str,
    codec: int,
    max_frame: int,
    link_plan: LinkPlan | None,
    high_water: int,
    deadline_seconds: float,
) -> None:
    """Entry point of a forked hub worker process (never returns).

    Like :func:`~repro.net.node.node_main` it leaves via ``os._exit`` so a
    forked child cannot re-run the orchestrator's cleanup handlers.  The
    link plan is projected *here*, in the child, so the parent's pristine
    plan state is never mutated.
    """
    code = EXIT_INTERNAL_ERROR
    try:
        worker = HubWorker(
            index,
            hubs,
            shards,
            nodes,
            listener,
            endpoints,
            seed=seed,
            mean_delay=mean_delay,
            jitter=jitter,
            codec=codec,
            max_frame=max_frame,
            link_plan=link_plan,
            high_water=high_water,
        )
        code = worker.run(deadline_seconds)
    except Exception:
        code = EXIT_INTERNAL_ERROR
    os._exit(code)


def serve_hub(
    index: int,
    hubs: int,
    shards: int,
    nodes: int,
    host: str = "127.0.0.1",
    port: int = 0,
    peers: dict[int, tuple[str, int]] | None = None,
    seed: int = 0,
    mean_delay: float = 0.0005,
    jitter: str = "uniform",
    codec: int = CODEC_BINARY,
    max_frame: int = DEFAULT_MAX_FRAME,
    high_water: int = DEFAULT_HIGH_WATER,
    deadline_seconds: float = 300.0,
    announce: Any = None,
) -> int:
    """Run one hub group as a standalone TCP server (the ``repro hub``
    subcommand; multi-host meshes point ``MeshTopology.remote`` at it).

    ``announce`` is called with the bound ``(host, port)`` once listening
    — tests and shell scripts use it to learn an ephemeral port.  Returns
    the worker's exit code.  A remote hub gets no link plan: transport
    fault injection stays with hubs the orchestrator controls.
    """
    if index < 1 or index >= hubs:
        raise SimulationError(f"hub index {index} out of range [1, {hubs})")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(nodes + hubs + 2)
    if announce is not None:
        announce(listener.getsockname())
    endpoints: list[Endpoint] = [None] * hubs
    for peer, address in (peers or {}).items():
        if 0 <= peer < hubs:
            endpoints[peer] = (socket.AF_INET, tuple(address))
    worker = HubWorker(
        index,
        hubs,
        shards,
        nodes,
        listener,
        endpoints,
        seed=seed,
        mean_delay=mean_delay,
        jitter=jitter,
        codec=codec,
        max_frame=max_frame,
        high_water=high_water,
    )
    return worker.run(deadline_seconds)
