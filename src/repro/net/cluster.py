"""The hub data plane, and the hub-0 orchestrator built on it.

The paper's model (§2.1) is reliable, authenticated point-to-point
channels.  This module implements that model once, as :class:`DataPlane` —
the event loop every hub runs:

    accept → classify by first frame → authenticate the pid → expand a
    broadcast into its n sends → fault plan → seeded jitter → delay heap →
    one coalesced write per destination

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

:class:`NetCluster` is hub 0: the plane plus an :class:`~repro.engine.run.
Engine`.  Each frame a node's ports write — a decision, an output, a
service call, a log record — is booked through the port an in-process
engine books it through, so the books, the trusted services (the §2.2
oracle must aggregate calls *across* processes) and the typed
:mod:`repro.engine.events` stream exist once.  Around them hub 0 adds
fork/reap/restart of the node workers (:func:`~repro.net.node.node_main`)
and liveness (the per-run deadline and stall detection, so a crashed or
silent node can never hang a run).  The mesh's data hubs
(:class:`~repro.mesh.hub.HubWorker`) run the same plane and add only a
control link.  Every hub delivers each frame it receives, whatever shard
the frame names: the shard→hub split is the nodes' steering, and a hub
never forwards a frame to another hub.

What is built when: a ``SendEvent``/``DeliverEvent`` only for a sink that
reads it (the ``_sends``/``_delivers`` readers the engine resolves; a data
hub has no sink and builds none).  When it does, it stamps a frame, not a
message: the clock is read once per frame taken in and once per write made.
A ``DeliverEvent`` is stamped when the hub hands the frame to the
destination's socket, one socket hop before the node handles it.  Payloads
stay :class:`~repro.codec.Opaque` spans on relay: a span decodes at most
once per message, on the first ``event.payload`` read.
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

from ..engine.events import (
    DeliverEvent,
    EventSink,
    FaultEvent,
    HubSaturatedEvent,
    RestartEvent,
    SendEvent,
)
from ..engine.faults import RestartPlan
from ..engine.run import Engine, RunResult
from ..errors import SimulationError
from ..runtime.effects import SERVICE_SENDER, Deliver, Log, ServiceCall
from ..runtime.protocol import Protocol
from ..runtime.services import Service, ServiceReply
from ..types import DecisionKind, ProcessId, SystemConfig
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

#: Ready-queue depth at which a hub declares itself saturated (see
#: :class:`~repro.engine.events.HubSaturatedEvent`).
DEFAULT_HIGH_WATER = 512

#: How long hub 0 waits for every node (and a mesh's every data hub) to
#: dial in before it marks the missing ones dead.
CONNECT_TIMEOUT = 10.0

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

    A hub holds one per accepted connection and per link it dialed (the
    orchestrator's control links); attached to a
    :class:`DataPlane` the socket is non-blocking and whatever ``send``
    could not write stays in ``outbox`` until the plane's selector reports
    the socket writable.  A bare link (:meth:`dial`, then :meth:`send`) is
    the blocking client side of the same framing — on a blocking socket the
    flush loop simply runs to completion.

    ``kind`` is ``pending`` until the first frame classifies the link as
    ``node`` or ``control`` (``closed`` once dropped); ``ident`` is the
    authenticated pid or the hub index.  ``broken`` says a write
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
    (bookkeeping around a link's life), and where the two things only a hub
    sees are reported — :meth:`_fault` (a link lost with a cause) and
    :meth:`_saturation` (a saturation episode).  A subclass with an event sink sets the
    ``_sends``/``_delivers`` readers and :meth:`now`; without them the
    plane builds no per-message event and reads no clock for one.

    Args:
        index: this hub's index (``0`` is hub 0).
        n: node pids are ``range(n)``.
        rng: the hub's seeded stream — fault-plan draws, then jitter.
        link_plan: the transport fault plan this hub applies.
        mean_delay: mean of the ``uniform(0.5, 1.5) × mean_delay`` jitter.
    """

    #: readers of the per-message events (see :class:`~repro.engine.run.Engine`).
    _sends: EventSink | None = None
    _delivers: EventSink | None = None

    def __init__(
        self,
        index: int,
        n: int,
        rng: random.Random,
        link_plan: LinkPlan,
        mean_delay: float,
        max_frame: int,
    ) -> None:
        self.index = index
        self.n = n
        self.rng = rng
        self.link_plan = link_plan
        self.mean_delay = mean_delay
        self.max_frame = max_frame
        #: ready-queue saturation watermark; the latch makes the event fire
        #: once per saturation episode, not once per frame past the mark.
        self.high_water = DEFAULT_HIGH_WATER
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
            self._fault(msg.pid, "duplicate-hello")
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

    def _fault(self, pid: ProcessId, fault: str, detail: str = "") -> None:
        """Report a fault this hub attributes to ``pid`` (or a hub index)."""
        raise NotImplementedError

    def _saturation(self, hub: int, depth: int, high_water: int) -> None:
        """Report that ``hub``'s ready queue reached ``depth`` at or above
        its ``high_water`` mark."""
        raise NotImplementedError

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
            self._fault(link.ident, fault, detail)
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

    # -- ingress: count, fault plan, jitter, heap ------------------------------------

    def _ingress(self, src: ProcessId, msg: MsgSend | MsgBroadcast) -> None:
        """One data frame off node ``src``'s link (``src`` is the link's
        authenticated pid, not the frame's claim), queued for delivery here
        whatever shard it names.  A ``MsgBroadcast`` is the ``n`` sends it
        stands for, in pid order — observed, then queued per destination,
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
        sends = self._sends
        if sends is not None:
            now = self.now()  # one frame, one arrival time
            for dst in range(first, stop):
                sends.emit(SendEvent(now, src, dst, payload, depth))
        self._schedule(first, src, payload, depth, time.monotonic(), stop)

    def _schedule(
        self, first: ProcessId, src: ProcessId, payload: Any, depth: int, arrived: float,
        stop: ProcessId | None = None,
    ) -> None:
        """Queue the copies of one frame that reached this hub at ``arrived``
        (``time.monotonic()``, read once per frame) for pids ``first`` up to
        ``stop`` (just ``first``).  Per frame: the fault chain of ``src``'s
        link (a service reply crosses none), heap, RNG.  Per copy: the
        plan's draws on a faulted link, one jitter draw (none for a self
        copy), one push.  Then, once, the saturation latch."""
        plan, rng = self.link_plan, self.rng
        chain = src != SERVICE_SENDER and (plan.per_source.get(src) or plan.everywhere)
        heap, push, seq = self._heap, heapq.heappush, self._seq
        random, mean_delay = rng.random, self.mean_delay
        for dst in range(first, first + 1 if stop is None else stop):
            for extra in plan.route(src, dst, rng) if chain else (0.0,):
                seq += 1
                if dst == src:
                    due = arrived + extra
                else:
                    due = arrived + (0.5 + random()) * mean_delay + extra
                push(heap, (due, seq, dst, src, payload, depth))
        self._seq = seq
        if not self._saturated and len(heap) >= self.high_water:
            self._saturated = True
            self._saturation(self.index, len(heap), self.high_water)

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
            delivers = self._delivers
            if delivers is not None:
                wrote = self.now()  # one write, one departure time
                for sender, payload, depth in delivered:
                    delivers.emit(DeliverEvent(wrote, dst, sender, payload, depth))

    def _write_single(self, link: HubLink, entry: tuple[ProcessId, Any, int]) -> bool:
        try:
            return self._write_deliveries(link, [entry])
        except FrameTooLarge as exc:
            self._fault(link.ident, "frame-too-large", str(exc))
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
                self._fault(link.ident, "truncated-stream", str(exc))
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


class NetCluster(DataPlane, Engine):
    """Run one protocol deployment as real OS processes over sockets.

    Args:
        config: system parameters.
        protocols: one protocol (or Byzantine behavior) per process —
            built exactly as for every other backend; workers inherit them
            via fork (closures and all), so nothing is pickled.
        faulty: declared-faulty process ids (bookkeeping, as everywhere).
        services: trusted services by name; executed at the hub.
        seed: seeds link jitter and probabilistic link faults.
        mean_delay: average one-way hub→node delay in seconds (each copy
            waits ``uniform(0.5, 1.5) × mean_delay``).
        event_sink: optional structured-event sink; times are wall-clock
            seconds since the run started.
        transport: ``"uds"`` (default) or ``"tcp"`` (loopback).
        max_frame: frame size cap, enforced on every link in both
            directions.
        link_plan: the transport conditions the hub applies per source
            link (:class:`~repro.net.faults.LinkPlan`) — never a fault:
            faults run as wrapper protocols inside the nodes.
        chaos: *unannounced* per-pid :class:`~repro.net.faults.
            ProcessCrash` specs — invisible to ``faulty`` on purpose.
        restarts: per-pid :class:`~repro.engine.faults.RestartPlan` crash-
            recovery schedules — a timed SIGKILL at ``plan.at`` seconds
            after Start and (when ``plan.restart_after`` is set) a
            re-fork that many seconds later.  The restarted worker builds
            its protocol *in the child* via ``plan.factory``, dials the
            hub, and is re-authenticated by its Hello exactly like an
            initial connection.
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
        restarts: Mapping[ProcessId, RestartPlan] | None = None,
    ) -> None:
        Engine.__init__(self, config, protocols, faulty, services, event_sink)
        if transport not in TRANSPORTS:
            raise SimulationError(
                f"unknown transport {transport!r} (one of: {', '.join(TRANSPORTS)})"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "the net engine needs the fork start method (protocols hold "
                "closures that cannot cross an exec boundary); this platform "
                "does not provide it"
            )
        DataPlane.__init__(
            self,
            index=0,
            n=config.n,
            rng=random.Random(seed),
            link_plan=link_plan if link_plan is not None else LinkPlan(),
            mean_delay=mean_delay,
            max_frame=max_frame,
        )
        self.protocols = dict(protocols)
        self.seed = seed
        self.transport = transport
        self.chaos = dict(chaos or {})
        #: shard count node workers steer by (the mesh sets its own).
        self.shards = 1
        #: ``time.monotonic()`` when the run started: the engine clock's zero.
        self._t0 = time.monotonic()
        self._dead: set[ProcessId] = set()
        self._uds_dir: str | None = None
        #: the dialable hub endpoints, index 0 this hub's listener (the mesh
        #: appends its data hubs).
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
        self._poll_until(lambda: len(self._nodes) == self.config.n, CONNECT_TIMEOUT)
        for pid in self.config.processes:
            if pid not in self._nodes:
                self._dead.add(pid)
                self._fault(pid, "never-connected")

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
        self._fault(pid, "CrashRecover", "killed")
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
            if self._events is not None:
                self._events.emit(RestartEvent(self.now(), link.ident))
            self._write(link, [Start()])

    def _link_lost(self, link: HubLink, kind: str) -> None:
        if kind == "node":
            self._dead.add(link.ident)

    # -- the engine's books --------------------------------------------------------

    def now(self) -> float:
        return time.monotonic() - self._t0

    def _fault(self, pid: ProcessId, fault: str, detail: str = "") -> None:
        if self._events is not None:
            self._events.emit(FaultEvent(self.now(), pid, fault, detail))

    def _saturation(self, hub: int, depth: int, high_water: int) -> None:
        if self._events is not None:
            self._events.emit(HubSaturatedEvent(self.now(), hub, depth, high_water))

    def _handle(self, link: HubLink, msg: Any) -> None:
        """One frame off node ``link``: a send is routed, the rest is booked
        through the port the node's :class:`~repro.net.node.NodeWorker`
        wrote it from, on behalf of the link's authenticated pid.  A frame
        no node's port could have written is a :class:`WireError`."""
        pid = link.ident
        if isinstance(msg, (MsgSend, MsgBroadcast)):
            self._ingress(pid, msg)
        elif isinstance(msg, MsgDecide):
            if type(msg.kind) is not DecisionKind or type(msg.step) is not int:
                raise WireError(f"decision kind {msg.kind!r} at step {msg.step!r}")
            self.decide(pid, msg.value, msg.kind, msg.step)
        elif isinstance(msg, MsgOutput):
            self.output(pid, Deliver(msg.tag, msg.sender, msg.value), 0)
        elif isinstance(msg, MsgService):
            self.service_call(pid, self._service_call_of(msg), msg.depth)
        elif isinstance(msg, MsgLog):
            self.log_record(pid, Log(msg.event, msg.data), 0)

    def _service_call_of(self, msg: MsgService) -> ServiceCall:
        """The call a ``MsgService`` frame carries, or a :class:`WireError`
        — the rule :meth:`_ingress` applies to a send: a call hub 0 cannot
        dispatch, or whose reply it cannot address, costs its own link."""
        call = msg.call
        if type(msg.depth) is not int:
            raise WireError(f"service call depth {msg.depth!r} is not an integer")
        if type(call) is not ServiceCall:
            raise WireError(f"a {type(call).__name__} is no service call")
        if type(call.service) is not str or call.service not in self.services:
            raise WireError(f"no service registered under {call.service!r}")
        path = call.reply_path
        if type(path) is not tuple or any(type(name) is not str for name in path):
            raise WireError(f"reply path {path!r} is no tuple of names")
        return call

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        # Simulated-units reply delay is replaced by hub jitter, exactly as
        # on the asyncio backend.
        self._schedule(reply.dst, SERVICE_SENDER, payload, reply.depth, time.monotonic())

    # -- liveness -------------------------------------------------------------------

    def _stalled(self) -> bool:
        """No progress is possible: every undecided correct node is dead
        and nothing is queued for delivery.  Sound because a dead node's
        outstanding frames are drained before its EOF is observed."""
        if self._heap:
            return False
        if self._pending_restart or self._kills or self._relaunches:
            return False  # a scheduled kill or a rejoin can still make progress
        return self._undecided_correct <= self._dead

    # -- the run --------------------------------------------------------------------

    def run(self, timeout: float = 30.0) -> NetRunResult:
        """Spawn, connect, route until every correct node decided (or the
        deadline), then tear everything down — stragglers killed, exit
        codes collected, sockets and the UDS directory removed."""
        self._t0 = start = time.monotonic()
        timed_out = False
        try:
            self._open()
            for pid in self.config.processes:
                self._fork_node(pid)
            self._handshake()
            for pid, crash in sorted(self.chaos.items()):
                self._fault(pid, "ProcessCrash", f"after={crash.after}")
            started = time.monotonic()
            for link in list(self._nodes.values()):
                self._write(link, [Start()])
            for pid, plan in sorted(self.restarts.items()):
                heapq.heappush(self._kills, (started + plan.at, pid))
            self._running = True
            deadline = start + timeout
            while self._undecided_correct:
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
            self.now(),
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
