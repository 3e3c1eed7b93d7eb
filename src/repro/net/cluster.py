"""The cluster orchestrator: spawn, connect, route, collect — with deadlines.

:class:`NetCluster` is the hub of a star topology.  It forks one worker
process per consensus node (:func:`~repro.net.node.node_main`), accepts
their connections on a single listener (Unix-domain socket by default,
TCP loopback on request), and then runs a ``selectors`` event loop that
routes every frame node→hub→destination.  Centralising the traffic buys
what a full mesh cannot:

* **link authentication** — the hub overrides each ``MsgSend``'s claimed
  source with the connection's proven pid (paper §2.1: a Byzantine node
  cannot forge another sender's identity);
* **fault injection** — every frame crosses the :class:`~repro.net.faults.
  LinkPlan`, so drops/delays/duplicates/cuts happen at the transport;
* **shared services** — trusted abstractions like the §2.2 oracle must
  aggregate calls *across* processes, so they execute at the hub;
* **observability** — the hub emits the same typed
  :mod:`repro.engine.events` stream as every in-memory backend;
* **liveness** — one place enforces the per-run deadline, detects stalls
  (every undecided correct node dead, nothing in flight), and kills
  stragglers, so a crashed or silent node can never hang a run.

Seeded per-message jitter (``uniform(0.5, 1.5) × mean_delay``, self-sends
undelayed) mirrors the asyncio runner, and — as there — real scheduling
makes interleavings only *mostly* reproducible; exact-replay tests belong
on the simulator.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import random
import select
import selectors
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..codec import CODEC_IDS, Opaque
from ..engine.events import EventSink
from ..engine.faults import RestartPlan
from ..engine.interpreter import dispatch_service_call
from ..errors import SimulationError
from ..runtime.asyncio_runner import AsyncRunResult
from ..runtime.effects import SERVICE_SENDER, Deliver
from ..runtime.protocol import Protocol
from ..runtime.services import Service, ServiceReply
from ..sim.latency import LognormalLatency
from ..types import Decision, ProcessId, RunStats, SystemConfig
from .events import HubEvents, StreamClock
from .faults import LinkPlan, ProcessCrash
from .node import node_main
from .wire import (
    CODEC_BINARY,
    CODEC_PICKLE,
    DEFAULT_MAX_FRAME,
    DELIVERY_BATCH_CHUNK,  # noqa: F401  (re-exported; was defined here)
    FrameDecoder,
    FrameTooLarge,
    Hello,
    MsgDecide,
    MsgDeliver,
    MsgDeliverBatch,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
    Start,
    Stop,
    TruncatedStream,
    batch_frames,
    encode_frame_into,
)

#: Supported transports for the hub listener.
TRANSPORTS = ("uds", "tcp")

#: Hub jitter models (seeded either way).
JITTERS = ("uniform", "lognormal")

#: How long a hub-side write may move no byte in either direction before
#: the node is declared dead.
SEND_TIMEOUT = 1.0

#: Default ready-queue depth at which a hub declares itself saturated
#: (see :class:`~repro.engine.events.HubSaturatedEvent`).
DEFAULT_HIGH_WATER = 512


def materialize_for(codec: int, msg: Any) -> Any:
    """Decode relayed :class:`~repro.codec.Opaque` spans when the
    destination connection does not speak the binary codec (mixed-codec
    cluster): a span splices only into binary frames.  Module-level so
    every hub implementation (star and mesh hub workers) shares it."""
    if codec == CODEC_BINARY:
        return msg
    if type(msg) is MsgDeliver and type(msg.payload) is Opaque:
        return MsgDeliver(msg.sender, msg.payload.decode(), msg.depth)
    if type(msg) is MsgDeliverBatch:
        return MsgDeliverBatch(
            tuple(
                (s, p.decode() if type(p) is Opaque else p, d)
                for s, p, d in msg.entries
            )
        )
    return msg


@dataclass
class NetRunResult(AsyncRunResult):
    """Outcome of one socket-engine run.

    Extends the shared wall-clock result surface with per-node OS exit
    codes (``None`` = the worker never terminated and was killed) and the
    transport used, so robustness tests can assert *how* each process
    died, not just that the run survived it.
    """

    exit_codes: dict[ProcessId, int | None] = field(default_factory=dict)
    transport: str = "uds"
    #: frames the hub wrote to node sockets (delivery batching shrinks this
    #: without changing ``stats.messages_delivered``).
    hub_frames: int = 0
    #: bytes the hub wrote to node sockets (the codec ablation's
    #: bytes-per-frame denominator is ``hub_bytes / hub_frames``).
    hub_bytes: int = 0
    #: per-hub frame/byte split (hub index → count).  The star topology has
    #: exactly one hub, so these are ``{0: hub_frames}`` / ``{0: hub_bytes}``;
    #: a mesh run fans them out per hub group — the counters that *prove*
    #: the load actually split.
    hub_frame_counts: dict[int, int] = field(default_factory=dict)
    hub_byte_counts: dict[int, int] = field(default_factory=dict)
    #: how each forked hub worker exited (hub index → exit code, ``-9`` for
    #: a SIGKILLed hub, ``None`` = never terminated and was killed at
    #: teardown).  Empty for the star topology — its single hub *is* the
    #: orchestrator — and for remote hubs, which are not our children.
    hub_exit_codes: dict[int, int | None] = field(default_factory=dict)


@dataclass
class _Conn:
    """One node's hub-side connection state."""

    pid: ProcessId
    sock: socket.socket
    decoder: FrameDecoder
    #: wire codec for this connection — announced by the node's Hello, so
    #: mixed-codec clusters work (the hub speaks each node's dialect).
    codec: int = CODEC_PICKLE


class NetCluster:
    """Run one protocol deployment as real OS processes over sockets.

    Args:
        config: system parameters.
        protocols: one protocol (or Byzantine behavior) per process —
            built exactly as for every other backend; workers inherit them
            via fork (closures and all), so nothing is pickled.
        faulty: declared-faulty process ids (bookkeeping, as everywhere).
        services: trusted services by name; executed at the hub.
        seed: seeds link jitter and probabilistic link faults.
        mean_delay: average one-way hub→node delay in seconds.
        event_sink: optional structured-event sink; times are wall-clock
            seconds since the run started.
        transport: ``"uds"`` (default) or ``"tcp"`` (loopback).
        codec: wire codec (:data:`~repro.net.wire.CODEC_BINARY` default —
            the struct-packed data plane; nodes announce theirs in the
            Hello frame and the hub honors it per connection).
        max_frame: frame size cap, enforced on every link in both
            directions.
        link_plan: transport-level fault plan (see
            :func:`~repro.net.faults.plan_from_plane`).
        jitter: per-message delay model — ``"uniform"`` (bounded,
            ``uniform(0.5, 1.5) × mean_delay``) or ``"lognormal"``
            (long-tailed with the same mean; see
            :class:`~repro.sim.latency.LognormalLatency`).
        batch_deliveries: coalesce co-scheduled deliveries per destination
            into :class:`~repro.net.wire.MsgDeliverBatch` frames (fewer
            hub syscalls; per-message semantics unchanged).
        chaos: *unannounced* per-pid :class:`~repro.net.faults.
            ProcessCrash` specs — invisible to ``faulty`` on purpose.
        connect_timeout: how long to wait for all workers to dial in.
        restarts: per-pid :class:`~repro.engine.faults.RestartPlan` crash-
            recovery schedules — a timed SIGKILL at ``plan.at`` seconds
            after Start and (when ``plan.restart_after`` is set) a
            re-fork that many seconds later.  The restarted worker builds
            its protocol *in the child* via ``plan.factory``, dials the
            hub, and is re-authenticated by its Hello exactly like an
            initial connection.  A chaos :class:`~repro.net.faults.
            ProcessCrash` with ``restart_after`` set relaunches the same
            way when its EOF is noticed (using the plan's factory when
            one exists, an amnesiac re-fork otherwise).
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        services: Mapping[str, Service] | None = None,
        seed: int = 0,
        mean_delay: float = 0.0005,
        event_sink: EventSink | None = None,
        transport: str = "uds",
        codec: int = CODEC_BINARY,
        max_frame: int = DEFAULT_MAX_FRAME,
        link_plan: LinkPlan | None = None,
        chaos: Mapping[ProcessId, ProcessCrash] | None = None,
        connect_timeout: float = 10.0,
        jitter: str = "uniform",
        batch_deliveries: bool = True,
        restarts: Mapping[ProcessId, RestartPlan] | None = None,
        high_water: int = DEFAULT_HIGH_WATER,
    ) -> None:
        if set(protocols) != set(config.processes):
            raise SimulationError(
                "protocols must cover exactly the process ids of the config"
            )
        if transport not in TRANSPORTS:
            raise SimulationError(
                f"unknown transport {transport!r} (one of: {', '.join(TRANSPORTS)})"
            )
        if jitter not in JITTERS:
            raise SimulationError(
                f"unknown jitter model {jitter!r} (one of: {', '.join(JITTERS)})"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "the net engine needs the fork start method (protocols hold "
                "closures that cannot cross an exec boundary); this platform "
                "does not provide it"
            )
        self.config = config
        self.protocols = dict(protocols)
        self.faulty = frozenset(faulty)
        self.services = dict(services or {})
        self.rng = random.Random(seed)
        self.mean_delay = mean_delay
        self.transport = transport
        self.codec = codec
        self.max_frame = max_frame
        self.link_plan = link_plan if link_plan is not None else LinkPlan()
        self.chaos = dict(chaos or {})
        self.connect_timeout = connect_timeout
        self.jitter = jitter
        self.batch_deliveries = batch_deliveries
        self._lognormal = (
            LognormalLatency(mean_delay) if jitter == "lognormal" and mean_delay > 0
            else None
        )
        self.hub_frames = 0
        self.hub_bytes = 0
        #: ready-queue saturation watermark; the latch makes the event fire
        #: once per saturation episode, not once per frame past the mark.
        self.high_water = high_water
        self._saturated = False
        #: reusable frame-encode buffer: the hub's entire write side goes
        #: through it, so steady-state routing allocates no per-frame bytes.
        self._send_buf = bytearray()
        self.stats = RunStats()
        self.decisions: dict[ProcessId, Decision] = {}
        self.outputs: dict[ProcessId, list[Deliver]] = {
            pid: [] for pid in config.processes
        }
        self._clock = StreamClock()
        self.events = HubEvents(event_sink, self._clock)
        self._conns: dict[ProcessId, _Conn] = {}
        self._dead: set[ProcessId] = set()
        self._selector: selectors.BaseSelector | None = None
        # delay heap entries: (due, seq, dst, sender, payload, depth)
        self._heap: list[tuple[float, int, ProcessId, ProcessId, Any, int]] = []
        self._seq = 0
        self._uds_dir: str | None = None
        # crash-recovery lifecycle state
        self.restarts = dict(restarts or {})
        self._children: dict[ProcessId, Any] = {}
        self._family: int | None = None
        self._address: Any = None
        self._kills: list[tuple[float, ProcessId]] = []
        self._relaunches: list[tuple[float, ProcessId]] = []
        self._pending_restart: set[ProcessId] = set()
        self._running = False

    # -- wiring ---------------------------------------------------------------------

    def _make_listener(self) -> tuple[socket.socket, int, Any]:
        if self.transport == "uds":
            self._uds_dir = tempfile.mkdtemp(prefix="repro-net-")
            address = os.path.join(self._uds_dir, "hub.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(address)
            family = socket.AF_UNIX
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            address = listener.getsockname()
            family = socket.AF_INET
        listener.listen(self.config.n)
        return listener, family, address

    def _spawn(self, family: int, address: Any) -> dict[ProcessId, Any]:
        ctx = multiprocessing.get_context("fork")
        children = {}
        for pid in self.config.processes:
            proc = ctx.Process(
                target=node_main,
                args=(pid, self.protocols[pid], family, address),
                kwargs={
                    "codec": self.codec,
                    "max_frame": self.max_frame,
                    "crash": self.chaos.get(pid),
                },
                daemon=True,
                name=f"repro-net-node-{pid}",
            )
            proc.start()
            children[pid] = proc
        self._children = children
        return children

    # -- crash-recovery lifecycle ----------------------------------------------------

    def _service_restarts(self, now: float) -> None:
        """Fire every due scheduled kill and every due relaunch."""
        while self._kills and self._kills[0][0] <= now:
            _, pid = heapq.heappop(self._kills)
            self._kill_node(pid)
        while self._relaunches and self._relaunches[0][0] <= now:
            _, pid = heapq.heappop(self._relaunches)
            self._relaunch(pid)

    def _kill_node(self, pid: ProcessId) -> None:
        """SIGKILL one worker mid-run (the CrashRecover timed crash)."""
        proc = self._children.get(pid)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)
        self.events.fault(pid, "CrashRecover", "killed")
        plan = self.restarts.get(pid)
        if plan is not None and plan.restart_after is not None:
            # Register the relaunch *before* _mark_dead so the EOF path
            # cannot double-schedule it.
            self._pending_restart.add(pid)
            heapq.heappush(
                self._relaunches, (time.monotonic() + plan.restart_after, pid)
            )
        self._mark_dead(pid)

    def _relaunch(self, pid: ProcessId) -> None:
        """Re-fork one worker; its Hello re-authenticates the link."""
        if self._family is None:
            return
        plan = self.restarts.get(pid)
        ctx = multiprocessing.get_context("fork")
        if plan is not None:
            # Build in the child: a durable protocol scans its WAL and
            # snapshot on construction, *after* the crash mutated them.
            args = (pid, None, self._family, self._address)
            kwargs: dict[str, Any] = {"build": plan.factory}
        else:
            # Amnesiac chaos restart: the parent's pristine instance.
            args = (pid, self.protocols[pid], self._family, self._address)
            kwargs = {}
        proc = ctx.Process(
            target=node_main,
            args=args,
            kwargs={
                "codec": self.codec,
                "max_frame": self.max_frame,
                **kwargs,
            },
            daemon=True,
            name=f"repro-net-node-{pid}-r",
        )
        proc.start()
        self._children[pid] = proc

    def _accept_restart(self, listener: socket.socket) -> None:
        """Accept one connection mid-run; register it if it is a restarted
        worker's Hello, drop anything else."""
        try:
            sock, _ = listener.accept()
        except (TimeoutError, OSError):
            return
        sock.settimeout(1.0)
        if self.transport == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder(self.max_frame, lazy=True)
        try:
            data = sock.recv(4096)
        except (TimeoutError, OSError):
            sock.close()
            return
        if data:
            for msg in decoder.feed(data):
                if isinstance(msg, Hello) and msg.pid in self._pending_restart:
                    self._register_restarted(msg.pid, sock, decoder, msg.codec)
                    return
        sock.close()

    def _conn_codec(self, announced: int) -> int:
        """The codec to speak on a connection: the node's announced codec
        when it is a known id, the cluster default otherwise (``0`` = the
        node expressed no preference)."""
        return announced if announced in CODEC_IDS else self.codec

    def _register_restarted(
        self,
        pid: ProcessId,
        sock: socket.socket,
        decoder: FrameDecoder,
        announced: int = 0,
    ) -> None:
        self._pending_restart.discard(pid)
        self._dead.discard(pid)
        conn = _Conn(pid, sock, decoder, self._conn_codec(announced))
        self._conns[pid] = conn
        if self._selector is not None:
            self._selector.register(sock, selectors.EVENT_READ, conn)
        self.events.restart(pid)
        self._write(pid, Start())

    def _accept_all(self, listener: socket.socket) -> None:
        """Accept connections and read Hellos until every node dialed in
        (or the connect timeout passed — missing nodes are marked dead)."""
        deadline = time.monotonic() + self.connect_timeout
        listener.settimeout(0.1)
        pending: list[tuple[socket.socket, FrameDecoder]] = []
        while len(self._conns) + len(pending) < self.config.n:
            if time.monotonic() > deadline:
                break
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                pass
            else:
                sock.settimeout(1.0)
                if self.transport == "tcp":
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                pending.append((sock, FrameDecoder(self.max_frame, lazy=True)))
            pending = [p for p in pending if not self._try_hello(*p, deadline)]
        for sock, _ in pending:
            sock.close()
        for pid in self.config.processes:
            if pid not in self._conns:
                self._dead.add(pid)
                self.events.fault(pid, "never-connected")

    def _try_hello(
        self, sock: socket.socket, decoder: FrameDecoder, deadline: float
    ) -> bool:
        """Read one frame off a fresh connection; register it on Hello."""
        try:
            data = sock.recv(4096)
        except TimeoutError:
            return False
        except OSError:
            sock.close()
            return True
        if not data:
            sock.close()
            return True
        for msg in decoder.feed(data):
            if isinstance(msg, Hello) and msg.pid in range(self.config.n):
                if msg.pid in self._conns:
                    # The pid already has an authenticated link: a second
                    # dialer claiming it must not replace (and leak) it.
                    self.events.fault(msg.pid, "duplicate-hello")
                    sock.close()
                else:
                    self._conns[msg.pid] = _Conn(
                        msg.pid, sock, decoder, self._conn_codec(msg.codec)
                    )
                return True
        return False

    # -- frame plumbing --------------------------------------------------------------

    def _send(self, conn: _Conn, buf: bytearray) -> None:
        """``sendall`` that cannot deadlock against the node.

        A node writes to the hub from inside its handlers, without reading.
        When its receive buffer is full while its own writes wait on us, a
        plain ``sendall`` here waits for the node waiting for the hub —
        until the send timeout drops a healthy replica.  So while the
        socket is not writable, drain what the node is sending instead
        (``_pump`` only queues work, so entering it from a delivery sweep
        is safe).

        Raises:
            OSError: the link died, or moved no byte either way for
                :data:`SEND_TIMEOUT` seconds.
        """
        sock = conn.sock
        with memoryview(buf) as view:
            sent = 0
            while sent < len(view):
                readable, writable, _ = select.select([sock], [sock], [], SEND_TIMEOUT)
                if writable:
                    sent += sock.send(view[sent:])
                elif not readable:
                    self.events.fault(conn.pid, "send-stalled")
                    raise TimeoutError("node neither reads nor writes")
                else:
                    self._pump(conn)
                    if conn.pid in self._dead:
                        raise ConnectionResetError("link closed mid-write")

    def _write(self, pid: ProcessId, msg: Any) -> bool:
        conn = self._conns.get(pid)
        if conn is None or pid in self._dead:
            return False
        buf = self._send_buf
        buf.clear()
        encode_frame_into(
            materialize_for(conn.codec, msg), buf, conn.codec, self.max_frame
        )
        try:
            self._send(conn, buf)
            self.hub_frames += 1
            self.hub_bytes += len(buf)
            return True
        except OSError:
            self._mark_dead(pid)
            return False

    def _write_frames(
        self, pid: ProcessId, msgs: list[Any]
    ) -> list[Any]:
        """Encode several frames into one buffer and write them with a
        single ``sendall`` (writev-style coalescing: one syscall per
        destination per delivery sweep instead of one per frame).

        A frame that overflows ``max_frame`` is re-queued by the caller;
        returns the messages actually written (all of them, or none on a
        dead connection).

        Raises:
            FrameTooLarge: some frame exceeds the cap — nothing is sent;
                the caller falls back per-frame.
        """
        conn = self._conns.get(pid)
        if conn is None or pid in self._dead:
            return []
        buf = self._send_buf
        buf.clear()
        codec = conn.codec
        for msg in msgs:
            encode_frame_into(
                materialize_for(codec, msg), buf, codec, self.max_frame
            )
        try:
            self._send(conn, buf)
            self.hub_frames += len(msgs)
            self.hub_bytes += len(buf)
            return msgs
        except OSError:
            self._mark_dead(pid)
            return []

    def _mark_dead(self, pid: ProcessId) -> None:
        if pid in self._dead:
            return
        self._dead.add(pid)
        conn = self._conns.pop(pid, None)
        if conn is not None:
            if self._selector is not None:
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError):
                    pass
            try:
                conn.sock.close()
            except OSError:
                pass
        # Chaos recovery: an *unannounced* ProcessCrash with a restart
        # delay relaunches once its EOF is noticed (scheduled CrashRecover
        # kills register their relaunch in _kill_node before reaching here).
        if self._running and pid not in self._pending_restart:
            spec = self.chaos.get(pid)
            if spec is not None and spec.restart_after is not None:
                self._pending_restart.add(pid)
                heapq.heappush(
                    self._relaunches, (time.monotonic() + spec.restart_after, pid)
                )

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
            self.events.saturated(0, len(self._heap), self.high_water)

    def _route(self, src: ProcessId, msg: MsgSend) -> None:
        """One node→node message: authenticate, count, fault-inject, queue."""
        self.stats.messages_sent += 1
        self.events.send(src, msg.dst, msg.payload, msg.depth)
        for extra in self.link_plan.route(src, msg.dst, self.rng):
            base = 0.0 if msg.dst == src else self._jitter()
            self._schedule(msg.dst, src, msg.payload, msg.depth, base + extra)

    def _deliver_due(self, now: float) -> None:
        if self._saturated and len(self._heap) <= self.high_water // 2:
            self._saturated = False  # episode over: re-arm the latch
        if not self.batch_deliveries:
            while self._heap and self._heap[0][0] <= now:
                _, _, dst, sender, payload, depth = heapq.heappop(self._heap)
                if self._write(dst, MsgDeliver(sender, payload, depth)):
                    self.stats.messages_delivered += 1
                    self.events.deliver(dst, sender, payload, depth)
            return
        # Coalesce every due delivery per destination into one frame (per
        # 32-entry chunk): multiplexed workloads make whole quorums of
        # instance traffic come due in the same sweep, and one frame per
        # destination replaces one syscall per message.  Per-destination
        # delivery order is exactly the heap's pop order, as before.
        batches: dict[ProcessId, list[tuple[ProcessId, Any, int]]] = {}
        order: list[ProcessId] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, dst, sender, payload, depth = heapq.heappop(self._heap)
            if dst not in batches:
                batches[dst] = []
                order.append(dst)
            batches[dst].append((sender, payload, depth))
        for dst in order:
            entries = batches[dst]
            frames, per_frame = batch_frames(entries)
            delivered: list[tuple[ProcessId, Any, int]] = []
            try:
                # One coalesced write per destination per sweep.
                if self._write_frames(dst, frames):
                    delivered = entries
            except FrameTooLarge:
                # huge payloads: fall back to one frame per message
                delivered = [
                    entry
                    for chunk in per_frame
                    for entry in chunk
                    if self._write(dst, MsgDeliver(*entry))
                ]
            for sender, payload, depth in delivered:
                self.stats.messages_delivered += 1
                self.events.deliver(dst, sender, payload, depth)

    def _handle(self, conn: _Conn, msg: Any) -> None:
        pid = conn.pid
        if isinstance(msg, MsgSend):
            self._route(pid, msg)  # src override: link-authenticated sender
        elif isinstance(msg, MsgDecide):
            if pid not in self.decisions:
                self.decisions[pid] = Decision(
                    msg.value, msg.kind, step=msg.step, time=time.monotonic()
                )
                self.events.decide(pid, msg.value, msg.kind, msg.step)
        elif isinstance(msg, MsgOutput):
            self.outputs[pid].append(Deliver(msg.tag, msg.sender, msg.value))
            self.events.output(pid, msg.tag, msg.sender, msg.value)
        elif isinstance(msg, MsgService):
            self.events.service(pid, msg.call.service, msg.call.payload)
            dispatch_service_call(
                self.services,
                pid,
                msg.call,
                msg.depth,
                time.monotonic(),
                self._deliver_reply,
            )
        elif isinstance(msg, MsgLog):
            self.events.log(pid, msg.event, msg.data)

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        # Simulated-units reply delay is replaced by hub jitter, exactly as
        # on the asyncio backend.
        self._schedule(reply.dst, SERVICE_SENDER, payload, reply.depth, self._jitter())

    # -- liveness -------------------------------------------------------------------

    def _all_correct_decided(self) -> bool:
        return all(
            pid in self.decisions
            for pid in self.config.processes
            if pid not in self.faulty
        )

    def _stalled(self) -> bool:
        """No progress is possible: every undecided correct node is dead
        and nothing is queued for delivery.  Sound because a dead node's
        outstanding frames are drained before its EOF is observed."""
        if self._heap:
            return False
        if self._pending_restart or self._kills or self._relaunches:
            return False  # a scheduled kill or a rejoin can still make progress
        return all(
            pid in self._dead
            for pid in self.config.processes
            if pid not in self.faulty and pid not in self.decisions
        )

    # -- the run --------------------------------------------------------------------

    def run(self, timeout: float = 30.0) -> NetRunResult:
        """Spawn, connect, route until every correct node decided (or the
        deadline), then tear everything down — stragglers killed, exit
        codes collected, sockets and the UDS path removed."""
        start = time.monotonic()
        self._clock.start()
        listener, family, address = self._make_listener()
        self._family, self._address = family, address
        children = self._spawn(family, address)
        timed_out = False
        try:
            self._accept_all(listener)
            for pid, crash in sorted(self.chaos.items()):
                self.events.fault(pid, "ProcessCrash", f"after={crash.after}")
            self._selector = selectors.DefaultSelector()
            self._selector.register(listener, selectors.EVENT_READ, None)
            for conn in self._conns.values():
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            self._register_extra()
            started = time.monotonic()
            for pid in self._conns:
                self._write(pid, Start())
            for pid, plan in sorted(self.restarts.items()):
                if plan.at is not None:
                    heapq.heappush(self._kills, (started + plan.at, pid))
            self._running = True
            deadline = start + timeout
            while not self._all_correct_decided():
                now = time.monotonic()
                if now >= deadline:
                    timed_out = True
                    break
                self._service_restarts(now)
                if self._stalled():
                    timed_out = True
                    break
                wait = deadline - now
                if self._heap:
                    wait = min(wait, max(self._heap[0][0] - now, 0.0))
                if self._kills:
                    wait = min(wait, max(self._kills[0][0] - now, 0.0))
                if self._relaunches:
                    wait = min(wait, max(self._relaunches[0][0] - now, 0.0))
                for key, _ in self._selector.select(min(wait, 0.05)):
                    if key.data is None:
                        self._accept_restart(listener)
                    else:
                        self._pump(key.data)
                self._deliver_due(time.monotonic())
        finally:
            self._running = False
            self._shutdown(listener)
            exit_codes = self._reap(children)
        return NetRunResult(
            config=self.config,
            decisions=dict(self.decisions),
            outputs=self.outputs,
            stats=self.stats,
            faulty=self.faulty,
            wall_seconds=time.monotonic() - start,
            timed_out=timed_out,
            exit_codes=exit_codes,
            transport=self.transport,
            hub_frames=self.hub_frames,
            hub_bytes=self.hub_bytes,
            hub_frame_counts={0: self.hub_frames},
            hub_byte_counts={0: self.hub_bytes},
        )

    def _register_extra(self) -> None:
        """Register additional selector entries before the main loop.

        A hook for subclasses — the mesh orchestrator registers its hub
        control links here; the star topology has nothing extra."""

    def _pump(self, conn: _Conn) -> None:
        """Drain one readable connection into the frame handler."""
        try:
            data = conn.sock.recv(65536)
        except TimeoutError:
            return
        except OSError:
            self._mark_dead(conn.pid)
            return
        if not data:
            try:
                conn.decoder.eof()
            except TruncatedStream as exc:
                self.events.fault(conn.pid, "truncated-stream", str(exc))
            self._mark_dead(conn.pid)
            return
        for msg in conn.decoder.feed(data):
            self._handle(conn, msg)

    def _shutdown(self, listener: socket.socket) -> None:
        for pid in list(self._conns):
            if pid not in self._dead:
                self._write(pid, Stop())
        for pid in list(self._conns):
            self._mark_dead(pid)
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        try:
            listener.close()
        except OSError:
            pass
        if self._uds_dir is not None:
            for name in ("hub.sock",):
                try:
                    os.unlink(os.path.join(self._uds_dir, name))
                except OSError:
                    pass
            try:
                os.rmdir(self._uds_dir)
            except OSError:
                pass
            self._uds_dir = None

    def _reap(self, children: Mapping[ProcessId, Any]) -> dict[ProcessId, int | None]:
        """Join every worker, escalating terminate → kill for stragglers."""
        exit_codes: dict[ProcessId, int | None] = {}
        for pid, proc in children.items():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            exit_codes[pid] = proc.exitcode
            proc.close()
        return exit_codes
