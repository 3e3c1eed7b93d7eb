"""The hub data plane, and the hub-0 orchestrator built on it.

The paper's model (§2.1) is reliable, authenticated point-to-point
channels.  This module implements that model once, as :class:`DataPlane` —
the event loop every hub runs:

    accept → classify by first frame → authenticate the pid → expand a
    broadcast into its n sends → attribute the shard off raw bytes → fault
    plan → seeded jitter → delay heap → one coalesced write per destination

* **link authentication** — a link's first frame is its identity; a
  ``Hello`` is admitted only for a pid in range with no live link, and the
  hub overrides the claimed source of each ``MsgSend``/``MsgBroadcast``
  with the link's proven pid (a Byzantine node cannot forge another
  sender's identity);
* **fault injection** — every frame crosses the :class:`~repro.net.faults.
  LinkPlan`, so drops/delays/duplicates/cuts happen at the transport;
* **no blocking writes** — every hub-side socket is non-blocking behind a
  per-link outbox (:class:`HubLink`): send what the socket takes, queue the
  rest, flush on ``EVENT_WRITE``.  A hub therefore always reads, a node's
  blocking handler-time write always completes, and no hub↔node wait cycle
  can form.  The outbox is bounded by :data:`OUTBOX_CAP`; overflow is an
  attributed disconnect, never a silent drop or a timeout-based guess.

Seeded per-message jitter (``uniform(0.5, 1.5) × mean_delay``, self-sends
undelayed) mirrors the asyncio runner: per copy a hub pays one jitter draw
and one heap push, the rest once per frame (:meth:`DataPlane._schedule`).
As there, real scheduling makes interleavings only *mostly* reproducible;
exact-replay tests belong on the simulator.

:class:`NetCluster` is hub 0: the plane plus what only the orchestrator
does — fork/reap/restart of the node workers (:func:`~repro.net.node.
node_main`), the typed :mod:`repro.engine.events` stream, trusted services
(the §2.2 oracle must aggregate calls *across* processes), decisions, and
liveness (the per-run deadline and stall detection, so a crashed or silent
node can never hang a run).  The mesh's data hubs
(:class:`~repro.mesh.hub.HubWorker`) instantiate the same plane and add
only hub-to-hub relay.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import random
import selectors
import shutil
import socket
import tempfile
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from ..engine.events import DeliverEvent, EventSink, SendEvent
from ..engine.faults import RestartPlan
from ..engine.interpreter import dispatch_service_call
from ..engine.run import RunResult, check_deployment
from ..errors import SimulationError
from ..runtime.effects import SERVICE_SENDER, Deliver
from ..runtime.protocol import Protocol
from ..runtime.services import Service, ServiceReply
from ..shard.router import UNATTRIBUTED, hub_of, shard_of_payload
from ..sim.latency import LognormalLatency
from ..types import Decision, ProcessId, RunStats, SystemConfig
from .events import HubEvents, StreamClock
from .faults import LinkPlan, ProcessCrash
from .node import connect_with_retry, node_main
from .wire import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameTooLarge,
    Hello,
    MsgBroadcast,
    MsgDecide,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
    SpanTable,
    Start,
    Stop,
    TruncatedStream,
    WireError,
    encode_frame_into,
)

#: Supported transports for the hub listener.
TRANSPORTS = ("uds", "tcp")

#: Hub jitter models (seeded either way).
JITTERS = ("uniform", "lognormal")

#: Default ready-queue depth at which a hub declares itself saturated
#: (see :class:`~repro.engine.events.HubSaturatedEvent`).
DEFAULT_HIGH_WATER = 512

#: Bytes a hub holds for one link that is not reading before it disconnects
#: it.  A whole 1 280-command benchmark trial moves ≈ 13 MB across seven
#: links (``net.bytes_per_cmd`` ≈ 10 KB), so a healthy replica never has
#: 4 MiB outstanding on one; a peer that does has stopped reading.
OUTBOX_CAP = 4 << 20

#: How long teardown lets a link's last queued frames (``Stop``, a hub's
#: final stats) leave before closing it anyway.
CLOSE_LINGER = 1.0


class HubLink:
    """One framed link to or from a hub: socket, decoder, identity, outbox.

    A hub holds one per accepted connection and per link it dialed (peer
    hubs, the orchestrator's control links); attached to a
    :class:`DataPlane` the socket is non-blocking and whatever ``send``
    could not write stays in ``outbox`` until the plane's selector reports
    the socket writable.  A bare link (:meth:`dial`, then :meth:`send`) is
    the blocking client side of the same framing — on a blocking socket the
    flush loop simply runs to completion.

    ``kind`` is ``pending`` until the first frame classifies the link as
    ``node``, ``peer`` or ``control`` (``closed`` once dropped); ``ident``
    is the authenticated pid or the hub index.  ``broken`` says a write
    failed: the peer is gone and the link takes no more frames, but it
    stays readable until EOF — what the peer wrote before dying counts.
    ``spans`` is the hub end of the link's span table: deliveries leave
    through :meth:`queue_deliveries`, which names a payload the link already
    carried by its slot.
    """

    __slots__ = (
        "sock", "decoder", "max_frame", "kind", "ident", "outbox", "writing", "broken",
        "spans",
    )

    def __init__(
        self,
        sock: socket.socket,
        max_frame: int = DEFAULT_MAX_FRAME,
        lazy: bool = True,
    ) -> None:
        self.sock = sock
        self.max_frame = max_frame
        self.decoder = FrameDecoder(max_frame, lazy=lazy)
        self.kind = "pending"
        self.ident = -1
        self.outbox = bytearray()
        self.writing = False  # registered for EVENT_WRITE
        self.broken = False
        self.spans = SpanTable()

    @classmethod
    def dial(
        cls,
        family: int,
        address: Any,
        hello: Any,
        max_frame: int = DEFAULT_MAX_FRAME,
        lazy: bool = True,
    ) -> "HubLink":
        """Connect, announce with ``hello``, return the live link.

        Raises:
            SimulationError: the endpoint never accepted.
        """
        link = cls(connect_with_retry(family, address), max_frame, lazy)
        link.send(hello)
        return link

    def queue(self, msgs: Iterable[Any]) -> int:
        """Append one frame per message to the outbox — all of them or, on
        any encoding failure, none.  Returns the bytes queued.

        Raises:
            FrameTooLarge: some frame exceeds the cap.
        """
        out = self.outbox
        mark = len(out)
        try:
            for msg in msgs:
                encode_frame_into(msg, out, max_frame=self.max_frame)
        except Exception:
            del out[mark:]
            raise
        return len(out) - mark

    def queue_deliveries(self, entries: list[tuple[ProcessId, Any, int]]) -> tuple[int, int]:
        """Append the :class:`~repro.net.wire.MsgDeliverRefs` frames of
        ``entries`` to the outbox — all of them or, on any failure, none,
        the span table untouched.  Returns ``(frames, bytes)`` queued.

        Raises:
            FrameTooLarge: some frame exceeds the cap.
        """
        mark = len(self.outbox)
        frames = self.spans.encode_frames_into(entries, self.outbox, self.max_frame)
        return frames, len(self.outbox) - mark

    def flush(self) -> bool:
        """Hand the socket as much of the outbox as it takes, in order.
        ``False`` means the link is dead."""
        out = self.outbox
        try:
            while out:
                del out[: self.sock.send(out)]
        except (BlockingIOError, InterruptedError):
            pass  # non-blocking and full: the rest leaves on EVENT_WRITE
        except OSError:
            return False
        return True

    def send(self, msg: Any) -> bool:
        """Frame and write one message; ``False`` instead of raising on a
        dead link, so callers decide per link whether that is fatal."""
        self.queue((msg,))
        return self.flush()

    def close(self) -> None:
        self.kind = "closed"
        try:
            self.sock.close()
        except OSError:
            pass


class DataPlane:
    """The delivery loop of one hub (see the module docstring).

    Subclasses supply what differs per hub: :meth:`_handle` (the frames a
    classified link may carry), :meth:`_classify_other` (first frames other
    than a node's ``Hello``), :meth:`_admitted` / :meth:`_link_lost`
    (bookkeeping around a link's life), :meth:`_relay` (the route to
    another hub), and ``events`` — where faults, saturation and per-message
    observations are reported.

    Args:
        index: this hub's index; ``hubs``/``shards`` size the shard→hub
            attribution (``hubs == 1`` owns everything, nothing is peeked).
        n: node pids are ``range(n)``.
        rng: the hub's seeded stream — fault-plan draws, then jitter.
        link_plan: the transport fault plan this hub applies.
        events: the hub's :class:`~repro.net.events.HubEvents` surface.
    """

    def __init__(
        self,
        index: int,
        hubs: int,
        shards: int,
        n: int,
        rng: random.Random,
        link_plan: LinkPlan,
        events: HubEvents,
        mean_delay: float,
        jitter: str,
        max_frame: int,
        high_water: int,
    ) -> None:
        self.index = index
        self.hubs = hubs
        self.shards = shards
        self.n = n
        self.rng = rng
        self.link_plan = link_plan
        self.events = events
        self.mean_delay = mean_delay
        self._lognormal = (
            LognormalLatency(mean_delay) if jitter == "lognormal" and mean_delay > 0
            else None
        )
        self.max_frame = max_frame
        #: ready-queue saturation watermark; the latch makes the event fire
        #: once per saturation episode, not once per frame past the mark.
        self.high_water = high_water
        self._saturated = False
        self.frames = 0  # frames queued to node links
        self.bytes = 0  # bytes queued to node links
        self.frames_in = 0  # frames read off node links
        self.sent = 0  # point-to-point messages ingressed (n per broadcast)
        self.delivered = 0  # deliveries queued (per message, not per frame)
        self.listener: socket.socket | None = None
        self._selector: selectors.BaseSelector = selectors.DefaultSelector()
        self._nodes: dict[ProcessId, HubLink] = {}
        # delay heap entries: (due, seq, dst, sender, payload, depth)
        self._heap: list[tuple[float, int, ProcessId, ProcessId, Any, int]] = []
        self._seq = 0

    # -- links: accept, classify, authenticate, drop ---------------------------------

    def _listen(self, listener: socket.socket) -> None:
        listener.setblocking(False)
        self.listener = listener
        self._selector.register(listener, selectors.EVENT_READ, None)

    def _attach(self, link: HubLink) -> None:
        """Put a link under this plane: non-blocking, read by the loop."""
        link.sock.setblocking(False)
        self._selector.register(link.sock, selectors.EVENT_READ, link)

    def _accept(self) -> None:
        assert self.listener is not None
        try:
            sock, _ = self.listener.accept()
        except OSError:
            return
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Whoever dialed is classified when (if) its first frame arrives —
        # a dialer that says nothing costs the loop nothing.
        self._attach(HubLink(sock, self.max_frame))

    def _classify(self, link: HubLink, msg: Any) -> None:
        """First frame on a fresh link decides what it is.  A ``Hello``
        authenticates a node: the pid must be in range and must not have a
        live link (a restarted node is admitted once the old link hit EOF)."""
        if not isinstance(msg, Hello):
            self._classify_other(link, msg)
        elif msg.pid not in range(self.n):
            self._drop(link, "hello-refused", f"claimed pid {msg.pid!r}")
        elif msg.pid in self._nodes:
            # A second dialer must not replace (and leak) the proven link.
            self.events.fault(msg.pid, "duplicate-hello")
            self._drop(link)
        else:
            link.kind, link.ident = "node", msg.pid
            self._nodes[msg.pid] = link
            self._admitted(link)

    def _classify_other(self, link: HubLink, msg: Any) -> None:
        self._drop(link)

    def _admitted(self, link: HubLink) -> None:
        """A node link was authenticated."""

    def _link_lost(self, link: HubLink, kind: str) -> None:
        """A link of ``kind`` was dropped (it is closed by now)."""

    def _drop(self, link: HubLink, fault: str = "", detail: str = "") -> None:
        """Detach and close one link; a ``fault`` attributes the loss."""
        kind = link.kind
        if kind == "closed":
            return
        try:
            self._selector.unregister(link.sock)
        except (KeyError, ValueError):
            pass
        link.close()
        if kind == "node" and self._nodes.get(link.ident) is link:
            del self._nodes[link.ident]
        if fault:
            self.events.fault(link.ident, fault, detail)
        self._link_lost(link, kind)

    # -- the one write path ----------------------------------------------------------

    def _write(self, link: HubLink, msgs: list[Any]) -> bool:
        """Queue ``msgs`` as frames on ``link`` and write what the socket
        takes now; the rest leaves when the selector says so.  Never blocks.
        ``False``: the link is (now) gone.

        Raises:
            FrameTooLarge: some frame exceeds the cap — nothing was queued.
        """
        if link.kind == "closed" or link.broken:
            return False
        return self._wrote(link, len(msgs), link.queue(msgs))

    def _write_deliveries(self, link: HubLink, entries: list[tuple[ProcessId, Any, int]]) -> bool:
        """:meth:`_write` for one destination's due deliveries, as
        :class:`~repro.net.wire.MsgDeliverRefs` frames against the link's
        span table.

        Raises:
            FrameTooLarge: some frame exceeds the cap — nothing was queued.
        """
        if link.kind == "closed" or link.broken:
            return False
        return self._wrote(link, *link.queue_deliveries(entries))

    def _wrote(self, link: HubLink, frames: int, size: int) -> bool:
        if link.kind == "node":
            self.frames += frames
            self.bytes += size
        self._flush(link)
        return link.kind != "closed" and not link.broken

    def _flush(self, link: HubLink) -> None:
        if not link.flush():
            # The peer is gone — but a crashed process's last messages were
            # sent (reliable channels; ``ProcessCrash(after=N)`` means N got
            # out), and they are still in the socket.  Stop writing, keep
            # reading: the link drops when the read side reaches its EOF.
            link.broken = True
            link.outbox.clear()
        elif len(link.outbox) > OUTBOX_CAP:
            self._drop(
                link,
                "outbox-overflow",
                f"{len(link.outbox)} bytes unread, cap {OUTBOX_CAP}",
            )
        if link.kind != "closed" and link.writing != bool(link.outbox):
            link.writing = not link.writing
            self._selector.modify(
                link.sock,
                selectors.EVENT_READ | (selectors.EVENT_WRITE if link.writing else 0),
                link,
            )

    # -- ingress: count, attribute, fault plan, jitter, heap -------------------------

    def _owner_of(self, payload: Any) -> int:
        if self.hubs == 1:
            return 0
        shard = shard_of_payload(payload, self.shards)
        return 0 if shard == UNATTRIBUTED else hub_of(shard, self.hubs)

    def _ingress(self, src: ProcessId, msg: MsgSend | MsgBroadcast) -> None:
        """One data frame off node ``src``'s link (``src`` is the link's
        authenticated pid, not the frame's claim): keep or relay.  A
        ``MsgBroadcast`` is the ``n`` sends it stands for, in pid order —
        attributed once, observed, then queued (or relayed) per destination,
        all sharing the one payload span.  A ``MsgSend`` to no process of
        the cluster, or a frame whose depth is no integer, is a
        :class:`WireError`."""
        payload, depth = msg.payload, msg.depth
        if type(depth) is not int:
            raise WireError(f"message depth {depth!r} is not an integer")
        if type(msg) is MsgBroadcast:
            first, stop = 0, self.n
        elif msg.dst in range(self.n):
            first, stop = msg.dst, msg.dst + 1
        else:
            raise WireError(f"send to pid {msg.dst!r}, outside the cluster")
        self.sent += stop - first
        owner = self._owner_of(payload)
        sends = self.events.sends
        if sends is not None:
            now = self.events.clock.now()  # one frame, one arrival time
            for dst in range(first, stop):
                sends.emit(SendEvent(now, src, dst, payload, depth))
        if owner == self.index:
            self._schedule(first, src, payload, depth, time.monotonic(), stop)
        else:
            for dst in range(first, stop):
                self._relay(owner, src, dst, payload, depth)

    def _relay(
        self, owner: int, src: ProcessId, dst: ProcessId, payload: Any, depth: int
    ) -> None:
        raise NotImplementedError  # a one-hub plane owns every frame

    def _schedule(
        self, first: ProcessId, src: ProcessId, payload: Any, depth: int, arrived: float,
        stop: ProcessId | None = None,
    ) -> None:
        """Queue the copies of one frame that reached this hub at ``arrived``
        (``time.monotonic()``, read once per frame) for pids ``first`` up to
        ``stop`` (just ``first``).  Per frame: the fault chain of ``src``'s
        link (a service reply crosses none), heap, RNG, jitter model.  Per
        copy: the plan's draws on a faulted link, one jitter draw (none for a
        self copy), one push.  Then, once, the saturation latch."""
        plan, rng = self.link_plan, self.rng
        chain = src != SERVICE_SENDER and (plan.per_source.get(src) or plan.everywhere)
        heap, push, seq = self._heap, heapq.heappush, self._seq
        random, mean_delay, lognormal = rng.random, self.mean_delay, self._lognormal
        for dst in range(first, first + 1 if stop is None else stop):
            for extra in plan.route(src, dst, rng) if chain else (0.0,):
                seq += 1
                if dst == src:
                    due = arrived + extra
                elif lognormal is None:
                    due = arrived + (0.5 + random()) * mean_delay + extra
                else:
                    due = arrived + lognormal.sample(rng, 0, 0) + extra
                push(heap, (due, seq, dst, src, payload, depth))
        self._seq = seq
        if not self._saturated and len(heap) >= self.high_water:
            self._saturated = True
            self.events.saturated(self.index, len(heap), self.high_water)

    # -- egress: one coalesced write per destination per sweep -----------------------

    def _deliver_due(self, now: float) -> None:
        if self._saturated and len(self._heap) <= self.high_water // 2:
            self._saturated = False  # episode over: re-arm the latch
        # Coalesce every due delivery per destination into one write (a
        # frame per 32 entries): multiplexed workloads make whole quorums of
        # instance traffic come due in the same sweep.  Per-destination
        # delivery order is exactly the heap's pop order: sorted (one C sort,
        # no pop per copy), the heap is still a heap, the due copies a prefix.
        heap = self._heap
        if not heap or heap[0][0] > now:
            return
        heap.sort()
        due = bisect_right(heap, (now, math.inf))
        batches: dict[ProcessId, list[tuple[ProcessId, Any, int]]] = {}
        for _, _, dst, sender, payload, depth in heap[:due]:
            batch = batches.get(dst)
            if batch is None:
                batches[dst] = [(sender, payload, depth)]
            else:
                batch.append((sender, payload, depth))
        del heap[:due]
        for dst, entries in batches.items():
            link = self._nodes.get(dst)
            if link is None:
                continue  # dead or never-connected destination
            try:
                delivered = entries if self._write_deliveries(link, entries) else []
            except FrameTooLarge:
                # huge payloads: fall back to one frame per message
                delivered = [e for e in entries if self._write_single(link, e)]
            self.delivered += len(delivered)
            delivers = self.events.delivers
            if delivers is not None:
                wrote = self.events.clock.now()  # one write, one departure time
                for sender, payload, depth in delivered:
                    delivers.emit(DeliverEvent(wrote, dst, sender, payload, depth))

    def _write_single(self, link: HubLink, entry: tuple[ProcessId, Any, int]) -> bool:
        try:
            return self._write_deliveries(link, [entry])
        except FrameTooLarge as exc:
            self.events.fault(link.ident, "frame-too-large", str(exc))
            return False

    # -- the loop --------------------------------------------------------------------

    def _pump(self, link: HubLink) -> None:
        """Drain one readable link into the frame handlers."""
        try:
            data = link.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(link)
            return
        if not data:
            try:
                link.decoder.eof()
            except TruncatedStream as exc:
                self.events.fault(link.ident, "truncated-stream", str(exc))
            self._drop(link)
            return
        try:
            for msg in link.decoder.feed(data):
                if link.kind == "pending":
                    self._classify(link, msg)
                else:
                    self.frames_in += link.kind == "node"
                    self._handle(link, msg)
                if link.kind == "closed":
                    break
        except WireError as exc:
            self._drop(link, "wire-error", str(exc))

    def _handle(self, link: HubLink, msg: Any) -> None:
        raise NotImplementedError

    def _poll(self, wait: float) -> None:
        """Wait up to ``wait`` seconds, then serve every ready socket:
        accept, flush a writable outbox, pump a readable link."""
        for key, mask in self._selector.select(wait):
            link = key.data
            if link is None:
                self._accept()
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(link)
            if mask & selectors.EVENT_READ and link.kind != "closed":
                self._pump(link)

    def _heap_wait(self, wait: float, now: float) -> float:
        """``wait``, shortened to the next due delivery."""
        if self._heap:
            return min(wait, max(self._heap[0][0] - now, 0.0))
        return wait

    def _close(self) -> None:
        """Close every link (queued frames get :data:`CLOSE_LINGER` to
        leave), the selector and the listener."""
        for key in list(self._selector.get_map().values()):
            link = key.data
            if link is not None:
                if link.outbox:
                    link.sock.settimeout(CLOSE_LINGER)
                    link.flush()
                self._drop(link)
        self._selector.close()
        if self.listener is not None:
            self.listener.close()


@dataclass
class NetRunResult(RunResult):
    """Outcome of one socket-engine run.

    Extends :class:`~repro.engine.run.RunResult` with per-node OS exit
    codes (``None`` = the worker never terminated and was killed), the
    transport used and the hub's frame counters, so robustness tests can
    assert *how* each process died, not just that the run survived it.
    """

    exit_codes: dict[ProcessId, int | None] = field(default_factory=dict)
    transport: str = "uds"
    #: frames the hub wrote to node sockets (delivery batching keeps this
    #: below ``stats.messages_delivered``).
    hub_frames: int = 0
    #: frames hub 0 read off node links once they had said ``Hello`` — data
    #: and control alike.  A broadcast is one of them and ``n`` of
    #: ``stats.messages_sent``.  (A mesh's data hubs count theirs too, but
    #: the pinned ``HubStats`` record has no field to report it in.)
    hub_frames_in: int = 0
    #: bytes the hub wrote to node sockets (bytes per frame is
    #: ``hub_bytes / hub_frames``).
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


def reap(proc: Any) -> int | None:
    """Join one forked worker, escalating terminate → kill for a straggler;
    returns its exit code."""
    proc.join(timeout=2.0)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=1.0)
    if proc.is_alive():
        proc.kill()
        proc.join()
    code = proc.exitcode
    proc.close()
    return code


class NetCluster(DataPlane):
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
        max_frame: frame size cap, enforced on every link in both
            directions.
        link_plan: the transport conditions the hub applies per source
            link (:class:`~repro.net.faults.LinkPlan`) — never a fault:
            faults run as wrapper protocols inside the nodes.
        jitter: per-message delay model — ``"uniform"`` (bounded,
            ``uniform(0.5, 1.5) × mean_delay``) or ``"lognormal"``
            (long-tailed with the same mean; see
            :class:`~repro.sim.latency.LognormalLatency`).
        chaos: *unannounced* per-pid :class:`~repro.net.faults.
            ProcessCrash` specs — invisible to ``faulty`` on purpose.
        connect_timeout: how long to wait for all workers to dial in.
        restarts: per-pid :class:`~repro.engine.faults.RestartPlan` crash-
            recovery schedules — a timed SIGKILL at ``plan.at`` seconds
            after Start and (when ``plan.restart_after`` is set) a
            re-fork that many seconds later.  The restarted worker builds
            its protocol *in the child* via ``plan.factory``, dials the
            hub, and is re-authenticated by its Hello exactly like an
            initial connection.
        high_water: ready-queue depth that raises a saturation event.
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
        max_frame: int = DEFAULT_MAX_FRAME,
        link_plan: LinkPlan | None = None,
        chaos: Mapping[ProcessId, ProcessCrash] | None = None,
        connect_timeout: float = 10.0,
        jitter: str = "uniform",
        restarts: Mapping[ProcessId, RestartPlan] | None = None,
        high_water: int = DEFAULT_HIGH_WATER,
    ) -> None:
        faulty = check_deployment(config, protocols, faulty)
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
        self._clock = StreamClock()
        super().__init__(
            index=0,
            hubs=1,
            shards=1,
            n=config.n,
            rng=random.Random(seed),
            link_plan=link_plan if link_plan is not None else LinkPlan(),
            events=HubEvents(event_sink, self._clock),
            mean_delay=mean_delay,
            jitter=jitter,
            max_frame=max_frame,
            high_water=high_water,
        )
        self.config = config
        self.protocols = dict(protocols)
        self.faulty = faulty
        self.services = dict(services or {})
        self.seed = seed
        self.transport = transport
        self.chaos = dict(chaos or {})
        self.connect_timeout = connect_timeout
        self.jitter = jitter
        self.stats = RunStats()
        self.decisions: dict[ProcessId, Decision] = {}
        self.outputs: dict[ProcessId, list[Deliver]] = {
            pid: [] for pid in config.processes
        }
        self._dead: set[ProcessId] = set()
        self._uds_dir: str | None = None
        #: node-side steering mode and the dialable hub endpoints, index 0
        #: this hub's listener (the mesh appends its data hubs).
        self.route = "direct"
        self._endpoints: list[tuple[int, Any]] = []
        # crash-recovery lifecycle state
        self.restarts = dict(restarts or {})
        self._children: dict[ProcessId, Any] = {}
        self._kills: list[tuple[float, ProcessId]] = []
        self._relaunches: list[tuple[float, ProcessId]] = []
        self._pending_restart: set[ProcessId] = set()
        self._running = False

    # -- wiring ---------------------------------------------------------------------

    def _bind(self, name: str, backlog: int) -> tuple[socket.socket, tuple[int, Any]]:
        """Bind one listener of the run's transport; ``(listener, endpoint)``."""
        if self.transport == "uds":
            if self._uds_dir is None:
                self._uds_dir = tempfile.mkdtemp(prefix="repro-net-")
            family, address = socket.AF_UNIX, os.path.join(self._uds_dir, name)
        else:
            family, address = socket.AF_INET, ("127.0.0.1", 0)
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.bind(address)
        listener.listen(backlog)
        return listener, (family, listener.getsockname())

    def _open(self) -> None:
        """Bind and register the hub-0 listener nodes dial."""
        listener, endpoint = self._bind("hub.sock", self.config.n)
        self._endpoints = [endpoint]
        self._listen(listener)

    def _fork_node(self, pid: ProcessId, restarted: bool = False) -> None:
        """Fork the worker of ``pid``.  A restarted worker builds its
        protocol *in the child* from its :class:`RestartPlan` — a durable
        protocol scans its WAL and snapshot on construction, after the
        crash mutated them.  Chaos specs arm first launches only."""
        build = self.restarts[pid].factory if restarted else None
        proc = multiprocessing.get_context("fork").Process(
            target=node_main,
            args=(
                pid,
                None if restarted else self.protocols[pid],
                list(self._endpoints),
                self.shards,
                self.route,
            ),
            kwargs={
                "max_frame": self.max_frame,
                "crash": None if restarted else self.chaos.get(pid),
                "build": build,
            },
            daemon=True,
            name=f"repro-net-node-{pid}" + ("-r" if restarted else ""),
        )
        proc.start()
        self._children[pid] = proc

    def _poll_until(self, done: Callable[[], bool], timeout: float) -> None:
        """Serve sockets (no deliveries) until ``done()`` or the timeout."""
        deadline = time.monotonic() + timeout
        while not done() and time.monotonic() < deadline:
            self._poll(0.05)

    def _handshake(self) -> None:
        """Serve Hellos until every node dialed in (or the connect timeout
        passed — missing nodes are marked dead)."""
        self._poll_until(lambda: len(self._nodes) == self.config.n, self.connect_timeout)
        for pid in self.config.processes:
            if pid not in self._nodes:
                self._dead.add(pid)
                self.events.fault(pid, "never-connected")

    # -- crash-recovery lifecycle ----------------------------------------------------

    def _service_restarts(self, now: float) -> None:
        """Fire every due scheduled kill and every due relaunch."""
        while self._kills and self._kills[0][0] <= now:
            _, pid = heapq.heappop(self._kills)
            self._kill_node(pid)
        while self._relaunches and self._relaunches[0][0] <= now:
            _, pid = heapq.heappop(self._relaunches)
            self._fork_node(pid, restarted=True)

    def _kill_node(self, pid: ProcessId) -> None:
        """SIGKILL one worker mid-run (the CrashRecover timed crash)."""
        proc = self._children.get(pid)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)
        self.events.fault(pid, "CrashRecover", "killed")
        restart_after = self.restarts[pid].restart_after
        if restart_after is not None:
            # Pending until the relaunched worker re-authenticates: the
            # stall check must not end the run in between.
            self._pending_restart.add(pid)
            heapq.heappush(self._relaunches, (time.monotonic() + restart_after, pid))
        if pid in self._nodes:
            self._drop(self._nodes[pid])

    def _admitted(self, link: HubLink) -> None:
        if self._running:  # a restarted worker re-authenticated: it rejoins
            self._pending_restart.discard(link.ident)
            self._dead.discard(link.ident)
            self.events.restart(link.ident)
            self._write(link, [Start()])

    def _link_lost(self, link: HubLink, kind: str) -> None:
        if kind == "node":
            self._dead.add(link.ident)

    # -- frames off node links -------------------------------------------------------

    def _handle(self, link: HubLink, msg: Any) -> None:
        pid = link.ident
        if isinstance(msg, (MsgSend, MsgBroadcast)):
            self._ingress(pid, msg)
        elif isinstance(msg, MsgDecide):
            if pid not in self.decisions:
                # Stamped on arrival at the hub, with the stream clock: the
                # decision and its event carry the same time.
                now = self._clock.now()
                decision = Decision(msg.value, msg.kind, step=msg.step, time=now)
                self.decisions[pid] = decision
                self.stats.record_decision(pid, decision)
                self.events.decide(pid, msg.value, msg.kind, msg.step, now)
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
                self._clock.now(),
                self._deliver_reply,
            )
        elif isinstance(msg, MsgLog):
            self.events.log(pid, msg.event, msg.data)

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        # Simulated-units reply delay is replaced by hub jitter, exactly as
        # on the asyncio backend.
        self._schedule(reply.dst, SERVICE_SENDER, payload, reply.depth, time.monotonic())

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
        codes collected, sockets and the UDS directory removed."""
        self._clock.start()
        start = time.monotonic()
        timed_out = False
        try:
            self._open()
            for pid in self.config.processes:
                self._fork_node(pid)
            self._handshake()
            for pid, crash in sorted(self.chaos.items()):
                self.events.fault(pid, "ProcessCrash", f"after={crash.after}")
            started = time.monotonic()
            for link in list(self._nodes.values()):
                self._write(link, [Start()])
            for pid, plan in sorted(self.restarts.items()):
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
                wait = min(deadline - now, 0.05)
                if self._kills:
                    wait = min(wait, max(self._kills[0][0] - now, 0.0))
                if self._relaunches:
                    wait = min(wait, max(self._relaunches[0][0] - now, 0.0))
                self._poll(self._heap_wait(wait, now))
                self._deliver_due(time.monotonic())
        finally:
            self._running = False
            self._shutdown()
            exit_codes = {pid: reap(proc) for pid, proc in self._children.items()}
        self.stats.messages_sent = self.sent
        self.stats.messages_delivered = self.delivered
        return NetRunResult.from_books(
            self,
            self._clock.now(),
            drained=not self._heap,
            timed_out=timed_out,
            exit_codes=exit_codes,
            transport=self.transport,
            hub_frames=self.frames,
            hub_frames_in=self.frames_in,
            hub_bytes=self.bytes,
            hub_frame_counts={0: self.frames},
            hub_byte_counts={0: self.bytes},
        )

    def _stop_nodes(self) -> None:
        """Tell every connected node the run is over and hang up."""
        for link in list(self._nodes.values()):
            if self._write(link, [Stop()]):
                self._drop(link)

    def _shutdown(self) -> None:
        self._stop_nodes()
        self._close()
        if self._uds_dir is not None:
            shutil.rmtree(self._uds_dir, ignore_errors=True)
            self._uds_dir = None
