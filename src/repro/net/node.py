"""The node worker: one sans-IO protocol behind real sockets.

A worker process hosts exactly one :class:`~repro.runtime.protocol.
Protocol` (honest or a Byzantine behavior wrapper — it cannot tell) and
connects to every hub of the run: one in the star topology, one per hub
group in a mesh, where each data frame is steered to the hub owning its
shard.  The protocol is driven through the standard path —
:func:`~repro.runtime.protocol.guarded` handler calls,
:func:`~repro.engine.interpreter.interpret` effect execution — with a
:class:`NodeWorker` as the :class:`~repro.engine.interpreter.
ExecutionPorts` implementation: ``send`` writes a frame, ``broadcast``
writes *one* frame for all ``n`` destinations (the hub fans it out in pid
order, self-copy included and routed back with zero jitter), ``decide``
reports to the hub once.
Because the interpreter and the rewriters are reused unchanged, every
fault that works in-memory works over the wire.

Workers are *forked*, not spawned: protocols routinely hold closures
(behavior factories, ``uc_factory`` lambdas) that pickle cannot move
across an exec boundary, while fork inherits them copy-on-write.  The
worker's lifecycle is defensive at every edge — connect retries with
exponential backoff, a receive timeout so a dead hub cannot wedge it, and
``os._exit`` termination so a forked child never runs the parent's
cleanup handlers.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from typing import Any

from ..codec import Opaque
from ..engine.interpreter import ExecutionPorts, interpret
from ..errors import SimulationError
from ..runtime.effects import Deliver, Log, ServiceCall
from ..runtime.protocol import Protocol, guarded
from ..shard.router import UNATTRIBUTED, hub_of, shard_of_payload
from ..types import ProcessId
from .faults import NODE_ENV_MARKER, ProcessCrash
from .wire import (
    CODEC_BINARY,
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    Hello,
    MsgBroadcast,
    MsgDecide,
    MsgDeliverRefs,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
    Start,
    Stop,
    encode_frame_into,
)

#: Worker exit codes (collected by the cluster for post-mortems).  A worker
#: its :class:`~repro.net.faults.ProcessCrash` kills exits with
#: :data:`~repro.net.faults.EXIT_PROCESS_CRASH`.
EXIT_OK = 0
EXIT_RECV_TIMEOUT = 3
EXIT_CONNECT_FAILED = 4
EXIT_INTERNAL_ERROR = 5
#: The node lost a data-hub link mid-run.  Distinct from every other exit
#: code so hub failures attribute to the hub, not the node.
EXIT_HUB_LOST = 6


def connect_with_retry(
    family: int,
    address: Any,
    attempts: int = 30,
    base_delay: float = 0.01,
    max_delay: float = 0.5,
) -> socket.socket:
    """Connect to the hub, retrying with exponential backoff.

    Workers fork before the orchestrator finishes arming its listener's
    accept loop, so the first attempts may be refused; backoff doubles from
    ``base_delay`` up to ``max_delay`` per retry.

    Raises:
        SimulationError: every attempt failed (the last ``OSError`` is in
            the message).
    """
    delay = base_delay
    last_error: OSError | None = None
    for _ in range(attempts):
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect(address)
        except OSError as exc:
            sock.close()
            last_error = exc
            time.sleep(delay)
            delay = min(delay * 2, max_delay)
        else:
            if family == socket.AF_INET:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
    raise SimulationError(
        f"could not connect to hub at {address!r} after {attempts} attempts: "
        f"{last_error!r}"
    )


class NodeWorker(ExecutionPorts):
    """Execution ports whose far side is one socket per hub.

    Args:
        pid: hosted process id.
        protocol: the protocol (or behavior wrapper) to drive.
        socks: one connected socket per hub, indexed by hub.  ``socks[0]``
            is hub 0, the orchestrator: everything control-plane —
            decisions, outputs, service calls, log records, and every
            unattributable payload — goes there, where the event stream
            and the services live.  A star node simply has one socket.
        shards: shard count for payload attribution; with more than one
            hub, each data frame is steered to the hub owning its shard.
        max_frame: frame size cap (must match the hubs').
        crash: optional :class:`~repro.net.faults.ProcessCrash` chaos spec;
            checked before every outgoing message write.
    """

    def __init__(
        self,
        pid: ProcessId,
        protocol: Protocol,
        socks: list[socket.socket],
        shards: int = 1,
        max_frame: int = DEFAULT_MAX_FRAME,
        crash: ProcessCrash | None = None,
    ) -> None:
        if not socks:
            raise SimulationError("a node needs at least the hub-0 socket")
        self.pid = pid
        self.protocol = protocol
        self.config = protocol.config
        self.socks = socks
        self.shards = shards
        self.steer = len(socks) > 1
        self.max_frame = max_frame
        self.crash = crash
        self._sent = 0
        self._hello_sent = False
        self._decided = False
        self._started = False
        self._buf = bytearray()

    def _write(self, msg: Any, hub: int = 0) -> None:
        # Chaos check on every post-handshake frame: "outgoing message" for a
        # ProcessCrash budget means anything the node tells the world — a
        # send, a service call, even its decision announcement.  The Hello
        # handshake is exempt so a budget of zero still registers the node
        # (dying unconnected is the listener-timeout path, a separate regime).
        if self._hello_sent and self.crash is not None:
            self.crash.maybe_kill(self._sent)
        buf = self._buf
        buf.clear()
        encode_frame_into(msg, buf, max_frame=self.max_frame)
        # Blocking, from inside a handler, without reading: safe because no
        # hub ever blocks in a write of its own (see repro.net.cluster).
        self.socks[hub].sendall(buf)
        self._sent += 1

    # -- ExecutionPorts --------------------------------------------------------------

    def _hub_for(self, payload: Any) -> int:
        """The hub a data frame goes to: the one owning the payload's shard
        when steering.  The payload is still a real envelope chain here, so
        attribution never peeks encoded bytes."""
        if self.steer:
            shard = shard_of_payload(payload, self.shards)
            if shard != UNATTRIBUTED:
                return hub_of(shard, len(self.socks))
        return 0

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        self._write(MsgSend(src, dst, payload, depth), self._hub_for(payload))

    def broadcast(self, src: ProcessId, payload: Any, depth: int) -> None:
        n = self.config.n
        if self.crash is not None and self._sent + n > self.crash.after:
            # The crash budget ends inside this broadcast: fan out per
            # destination so the process dies at point-to-point message
            # ``after + 1``, a prefix of the broadcast already on the wire.
            super().broadcast(src, payload, depth)
            return
        self._write(MsgBroadcast(src, payload, depth), self._hub_for(payload))
        self._sent += n - 1  # the frame stood for n messages

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        if not self._decided:
            self._decided = True
            self._write(MsgDecide(pid, value, kind, depth))

    def output(self, pid: ProcessId, effect: Deliver, depth: int) -> None:
        self._write(MsgOutput(pid, effect.tag, effect.sender, effect.value))

    def service_call(self, pid: ProcessId, call: ServiceCall, depth: int) -> None:
        self._write(MsgService(pid, call, depth))

    def log_record(self, pid: ProcessId, record: Log, depth: int) -> None:
        self._write(MsgLog(pid, record.event, record.data))

    # -- lifecycle -------------------------------------------------------------------

    def run(self, recv_timeout: float = 60.0) -> int:
        """Drive the protocol until hub 0 says stop; return an exit code.

        The loop is frame-driven: ``Start`` runs ``on_start``, each
        delivery runs one guarded handler call, ``Stop`` (or hub 0 closing
        its link — the orderly end of a run) ends it.  A *data* hub closing
        its link is :data:`EXIT_HUB_LOST`: a node that lost its shard
        traffic must not limp on, and the distinct code attributes the
        death to the hub.  ``recv_timeout`` is a failsafe against hubs
        that died without closing their sockets; it spans all links — an
        idle data hub is normal, a wholly silent cluster is not.
        """
        socks = self.socks
        decoders = {sock: FrameDecoder(self.max_frame) for sock in socks}
        with selectors.DefaultSelector() as sel:
            for hub, sock in enumerate(socks):
                sock.settimeout(recv_timeout)
                sel.register(sock, selectors.EVENT_READ)
                self._write(Hello(self.pid, CODEC_BINARY), hub)
            self._hello_sent = True
            self._sent = 0
            while True:
                # One link needs no readiness poll: block in recv itself.
                ready = (
                    socks
                    if len(socks) == 1
                    else [key.fileobj for key, _ in sel.select(recv_timeout)]
                )
                if not ready:
                    return EXIT_RECV_TIMEOUT
                for sock in ready:
                    try:
                        data = sock.recv(65536)
                    except TimeoutError:
                        return EXIT_RECV_TIMEOUT
                    except OSError:
                        data = b""  # the hub tore the link down
                    if not data:
                        return EXIT_OK if sock is socks[0] else EXIT_HUB_LOST
                    for msg in decoders[sock].feed(data):
                        if not self._dispatch(msg):
                            return EXIT_OK

    def _dispatch(self, msg: Any) -> bool:
        """Handle one inbound frame; ``False`` = Stop, the run is over."""
        if type(msg) is MsgDeliverRefs:
            protocol, pid = self.protocol, self.pid
            for sender, payload, depth in msg.entries:
                if type(payload) is Opaque:  # it did not decode: drop it, say whose
                    self._write(MsgLog(pid, "wire.undecodable", {"sender": sender}))
                elif effects := guarded(protocol, sender, payload):
                    interpret(self, pid, effects, depth)
        elif isinstance(msg, Start):
            if not self._started:
                self._started = True
                interpret(self, self.pid, self.protocol.on_start(), 0)
        elif isinstance(msg, Stop):
            return False
        return True


def node_main(
    pid: ProcessId,
    protocol: Protocol | None,
    endpoints: list[tuple[int, Any]],
    shards: int = 1,
    max_frame: int = DEFAULT_MAX_FRAME,
    crash: ProcessCrash | None = None,
    recv_timeout: float = 60.0,
    build: Any = None,
) -> None:
    """Entry point of the forked worker process (never returns).

    Sets the :data:`~repro.net.faults.NODE_ENV_MARKER` that arms
    :class:`~repro.net.faults.ProcessCrash`, dials every hub endpoint in
    index order (a star run has one), runs the worker, and leaves via
    ``os._exit`` so a forked child cannot re-run the parent's atexit
    machinery or flush inherited buffers twice.

    ``build`` — a zero-argument protocol factory — defers construction
    into the forked child; restarted crash-recovery workers use it so a
    durable protocol opens and replays its on-disk state *in the child*,
    not in the orchestrator.
    """
    os.environ[NODE_ENV_MARKER] = "1"
    code = EXIT_INTERNAL_ERROR
    socks: list[socket.socket] = []
    try:
        if build is not None:
            protocol = build()
        for family, address in endpoints:
            socks.append(connect_with_retry(family, address))
        worker = NodeWorker(pid, protocol, socks, shards, max_frame, crash)
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
