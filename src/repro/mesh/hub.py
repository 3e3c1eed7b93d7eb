"""The hub group worker: one shard-slice hub as its own process.

A mesh run forks one :class:`HubWorker` per hub group ``1..hubs-1`` (hub 0
stays inside the orchestrator).  A worker is a :class:`~repro.net.cluster.
DataPlane` — the accept/authenticate/delay-heap/write-queue loop hub 0 runs
too — plus the three things only a data hub does:

* **classify hub-facing links** — besides nodes (``Hello``), peer hubs and
  the orchestrator open with :class:`~repro.mesh.wire.HubHello`; the
  orchestrator's is the one control link (``HubHello(CONTROL_LINK)``);
* **relay** — a frame for a shard another hub owns leaves as
  :class:`~repro.mesh.wire.MsgRelay` on a peer link (dialed on first use),
  or up the control link when the owner has no dialable endpoint, where
  the orchestrator re-relays it.  A relayed frame arriving here is
  delivered without re-checking ownership (attribution is deterministic,
  so a re-check could only agree — skipping it also makes relay loops
  impossible);
* **report upward** — there is no event sink and no payload
  materialization here (binary payloads stay :class:`~repro.codec.Opaque`
  spans end to end; that skipped work is the mesh's scaling lever on one
  machine).  What the plane reports — a refused ``Hello``, an outbox
  overflow, saturation — goes up the control link instead, where hub 0
  turns it into the typed event it would have emitted itself, and the
  counters come back in one :class:`~repro.mesh.wire.HubStats` frame in
  reply to ``Stop``.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any

from ..codec import CODEC_BINARY
from ..errors import SimulationError
from ..net.cluster import DEFAULT_HIGH_WATER, DataPlane, HubLink
from ..net.faults import LinkPlan
from ..net.node import EXIT_INTERNAL_ERROR, EXIT_OK, EXIT_RECV_TIMEOUT
from ..net.wire import (
    DEFAULT_MAX_FRAME,
    FrameTooLarge,
    MsgBroadcast,
    MsgLog,
    MsgSend,
    Stop,
)
from ..types import ProcessId
from .topology import hub_rng
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats, MsgRelay

__all__ = ["HubLink", "HubWorker", "hub_worker_main", "serve_hub"]

#: ``(family, address)`` of a dialable hub listener, or ``None`` when the
#: hub is reachable only through the orchestrator's control link.
Endpoint = tuple[int, Any] | None


class HubWorker(DataPlane):
    """The event loop of one hub group.

    Args:
        index: this hub's index (``>= 1``; hub 0 is the orchestrator).
        hubs: total hub groups in the mesh.
        shards: shard count (attribution needs it to bound shard tags).
        nodes: node pids are ``range(nodes)``; all of them must register
            before the hub reports :class:`~repro.mesh.wire.HubReady`.
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
        max_frame: int = DEFAULT_MAX_FRAME,
        link_plan: LinkPlan | None = None,
        high_water: int = DEFAULT_HIGH_WATER,
    ) -> None:
        super().__init__(
            index=index,
            hubs=hubs,
            shards=shards,
            n=nodes,
            rng=hub_rng(seed, index),
            link_plan=(link_plan if link_plan is not None else LinkPlan()).project(index),
            mean_delay=mean_delay,
            jitter=jitter,
            max_frame=max_frame,
            high_water=high_water,
        )
        self.endpoints = endpoints
        self.relayed = 0  # frames forwarded toward another hub
        self.saturation_episodes = 0
        self._peers: dict[int, HubLink] = {}
        self._control: HubLink | None = None
        self._ready_sent = False
        self._exit: int | None = None
        self._listen(listener)

    # -- hub-facing links ------------------------------------------------------------

    def _classify_other(self, link: HubLink, msg: Any) -> None:
        if not isinstance(msg, HubHello):
            self._drop(link)
            return
        link.ident = msg.hub
        if msg.hub == CONTROL_LINK:
            link.kind = "control"
            self._control = link
            self._maybe_ready()
        else:
            link.kind = "peer"
            self._peers.setdefault(msg.hub, link)

    def _admitted(self, link: HubLink) -> None:
        self._maybe_ready()

    def _maybe_ready(self) -> None:
        if not self._ready_sent and len(self._nodes) >= self.n:
            self._ready_sent = self._report(HubReady(self.index, len(self._nodes)))

    def _report(self, msg: Any) -> bool:
        """One record up the control link (dropped without one: a hub
        whose orchestrator is gone is exiting anyway)."""
        return self._control is not None and self._write(self._control, [msg])

    def _fault(self, pid: ProcessId, fault: str, detail: str = "") -> None:
        # A fault rides an existing record: ``MsgLog(pid, fault, detail)``.
        self._report(MsgLog(pid, fault, {"detail": detail}))

    def _saturation(self, hub: int, depth: int, high_water: int) -> None:
        self.saturation_episodes += 1
        self._report(HubSaturated(hub, depth, high_water))

    def _link_lost(self, link: HubLink, kind: str) -> None:
        if kind == "control":
            # Orchestrator gone without a Stop: the run is over either way.
            self._control, self._exit = None, EXIT_OK
        elif kind == "peer" and self._peers.get(link.ident) is link:
            del self._peers[link.ident]

    # -- relay -----------------------------------------------------------------------

    def _relay(
        self, owner: int, src: ProcessId, dst: ProcessId, payload: Any, depth: int
    ) -> None:
        link = self._peers.get(owner) or self._dial_peer(owner) or self._control
        try:
            if link is not None and self._write(link, [MsgRelay(src, dst, payload, depth)]):
                self.relayed += 1
        except FrameTooLarge as exc:
            # Relay framing pushed it over the cap: not relayed, and said so.
            self._fault(src, "relay-too-large", str(exc))

    def _dial_peer(self, owner: int) -> HubLink | None:
        endpoint = self.endpoints[owner] if 0 < owner < len(self.endpoints) else None
        if endpoint is None:
            return None  # hub 0, or no dialable address: route via control
        try:
            link = HubLink.dial(
                *endpoint, HubHello(self.index, CODEC_BINARY), self.max_frame
            )
        except SimulationError:
            return None
        link.kind, link.ident = "peer", owner
        self._peers[owner] = link
        self._attach(link)
        return link

    # -- frame handling --------------------------------------------------------------

    def _handle(self, link: HubLink, msg: Any) -> None:
        if link.kind == "node":
            # Control-plane frames belong on the node's hub-0 link; anything
            # but a send or a broadcast arriving here is misdirected and dropped.
            if isinstance(msg, (MsgSend, MsgBroadcast)):
                self._ingress(link.ident, msg)
        elif isinstance(msg, MsgRelay):
            # Ownership was decided by the relaying hub: deliver, never
            # re-relay.  Already counted as sent where it ingressed.
            self._schedule(msg.dst, msg.src, msg.payload, msg.depth, time.monotonic())
        elif isinstance(msg, Stop) and link.kind == "control":
            self._report(
                HubStats(
                    self.index,
                    self.frames,
                    self.bytes,
                    self.sent,
                    self.delivered,
                    self.relayed,
                    self.saturation_episodes,
                )
            )
            self._exit = EXIT_OK

    # -- the run ---------------------------------------------------------------------

    def run(self, deadline_seconds: float = 120.0) -> int:
        """Accept, route and deliver until Stop (or the failsafe deadline).

        The deadline exists for the same reason as the node's receive
        timeout: an orchestrator that died without closing its sockets
        must not wedge a forked hub forever.
        """
        deadline = time.monotonic() + deadline_seconds
        try:
            while self._exit is None:
                now = time.monotonic()
                if now >= deadline:
                    return EXIT_RECV_TIMEOUT
                self._poll(self._heap_wait(min(deadline - now, 0.05), now))
                self._deliver_due(time.monotonic())
            return self._exit
        finally:
            self._close()


def hub_worker_main(deadline_seconds: float, *args: Any, **kwargs: Any) -> None:
    """Entry point of a forked hub worker process (never returns):
    ``HubWorker(*args, **kwargs).run(deadline_seconds)``.

    Like :func:`~repro.net.node.node_main` it leaves via ``os._exit`` so a
    forked child cannot re-run the orchestrator's cleanup handlers.  The
    worker is built *here*, in the child, so projecting the link plan never
    mutates the parent's pristine plan state.
    """
    code = EXIT_INTERNAL_ERROR
    try:
        code = HubWorker(*args, **kwargs).run(deadline_seconds)
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
        max_frame=max_frame,
        high_water=high_water,
    )
    return worker.run(deadline_seconds)
