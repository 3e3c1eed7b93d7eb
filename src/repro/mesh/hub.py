"""The hub group worker: one shard-slice hub as its own process.

A mesh run forks one :class:`HubWorker` per hub group ``1..hubs-1`` (hub 0
stays inside the orchestrator).  A worker is a :class:`~repro.net.cluster.
DataPlane` — the accept/authenticate/delay-heap/write-queue loop hub 0 runs
too — plus the two things only a data hub does:

* **one control link** — besides nodes (``Hello``), the orchestrator opens
  with ``HubHello(CONTROL_LINK)``; a hub admits exactly one such link, and
  any other :class:`~repro.mesh.wire.HubHello` is dropped like every
  unknown first frame.  The hub enforces the link plan on the frames it
  receives and delivers each of them itself, whatever shard it names:
  nodes steer a frame to the hub that owns its shard, and no frame ever
  leaves a hub toward another hub;
* **report upward** — there is no event sink and no payload
  materialization here (binary payloads stay :class:`~repro.codec.Opaque`
  spans end to end; that skipped work is the mesh's scaling lever on one
  machine).  What the plane reports — a refused ``Hello``, a second
  control link, an outbox overflow, saturation — goes up the control link
  instead, where hub 0 turns it into the typed event it would have emitted
  itself, and the counters come back in one :class:`~repro.mesh.wire.
  HubStats` frame in reply to ``Stop``.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any

from ..errors import SimulationError
from ..net.cluster import DataPlane, HubLink
from ..net.faults import LinkPlan
from ..net.node import EXIT_INTERNAL_ERROR, EXIT_OK, EXIT_RECV_TIMEOUT
from ..net.wire import DEFAULT_MAX_FRAME, MsgBroadcast, MsgLog, MsgSend, Stop
from ..types import ProcessId
from .topology import hub_rng
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats

__all__ = ["HubLink", "HubWorker", "hub_worker_main", "serve_hub"]


class HubWorker(DataPlane):
    """The event loop of one hub group.

    Args:
        index: this hub's index (``>= 1``; hub 0 is the orchestrator).
        nodes: node pids are ``range(nodes)``; all of them must register
            before the hub reports :class:`~repro.mesh.wire.HubReady`.
        listener: pre-bound listening socket (bound by the orchestrator
            before the fork, or by :func:`serve_hub` for a remote hub).
        seed: cluster seed; this hub draws from :func:`~repro.mesh.
            topology.hub_rng` stream ``index``.
        link_plan: the *full* cluster plan — projected onto this hub here,
            so per-fault budgets count only frames this hub received.
    """

    def __init__(
        self,
        index: int,
        nodes: int,
        listener: socket.socket,
        seed: int = 0,
        mean_delay: float = 0.0005,
        max_frame: int = DEFAULT_MAX_FRAME,
        link_plan: LinkPlan | None = None,
    ) -> None:
        super().__init__(
            index=index,
            n=nodes,
            rng=hub_rng(seed, index),
            link_plan=(link_plan if link_plan is not None else LinkPlan()).project(),
            mean_delay=mean_delay,
            max_frame=max_frame,
        )
        self.saturation_episodes = 0
        self._control: HubLink | None = None
        self._ready_sent = False
        self._exit: int | None = None
        self._listen(listener)

    # -- hub-facing links ------------------------------------------------------------

    def _classify_other(self, link: HubLink, msg: Any) -> None:
        """The orchestrator's ``HubHello(CONTROL_LINK)`` opens the one
        control link.  A second one is refused the way a duplicate node
        ``Hello`` is — dropped, and reported up the first — so it can
        neither replace the live link nor end the hub by hanging up."""
        if not isinstance(msg, HubHello) or msg.hub != CONTROL_LINK:
            self._drop(link)
        elif self._control is not None:
            self._fault(msg.hub, "duplicate-control")
            self._drop(link)
        else:
            link.kind, link.ident = "control", msg.hub
            self._control = link
            self._maybe_ready()

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

    # -- frame handling --------------------------------------------------------------

    def _handle(self, link: HubLink, msg: Any) -> None:
        if link.kind == "node":
            # Control-plane frames belong on the node's hub-0 link; anything
            # but a send or a broadcast arriving here is misdirected and dropped.
            if isinstance(msg, (MsgSend, MsgBroadcast)):
                self._ingress(link.ident, msg)
        elif isinstance(msg, Stop):
            self._report(
                HubStats(
                    self.index,
                    self.frames,
                    self.bytes,
                    self.sent,
                    self.delivered,
                    0,  # relayed: no hub forwards a frame
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
    nodes: int,
    host: str = "127.0.0.1",
    port: int = 0,
    seed: int = 0,
    mean_delay: float = 0.0005,
    max_frame: int = DEFAULT_MAX_FRAME,
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
    if index < 1:
        raise SimulationError(f"hub index {index} is not a data hub (>= 1)")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(nodes + 2)
    if announce is not None:
        announce(listener.getsockname())
    worker = HubWorker(
        index, nodes, listener, seed=seed, mean_delay=mean_delay, max_frame=max_frame
    )
    return worker.run(deadline_seconds)
