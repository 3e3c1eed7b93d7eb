"""The mesh orchestrator: hub 0 plus forked hub groups under one run.

:class:`MeshCluster` is a :class:`~repro.net.cluster.NetCluster` — hub 0,
with its listener, event stream, trusted services, fault plan, liveness
deadline and crash-recovery machinery — told that it owns only its slice of
the shard space.  Around that it adds what having *other* hubs takes:

* pre-bound listeners and forked :class:`~repro.mesh.hub.HubWorker`
  processes for hubs ``1..hubs-1`` (or dialed addresses for hubs the
  operator runs elsewhere via ``repro hub`` — ``MeshTopology.remote``),
  and node workers given every hub's endpoint to dial;
* one control link per hub, an ordinary link of hub 0's data plane —
  carrying :class:`~repro.mesh.wire.HubReady` (the Start barrier),
  relayed frames, a data hub's fault and saturation reports (re-emitted
  here as typed events), and the final :class:`~repro.mesh.wire.HubStats`;
* loud hub-failure semantics: a control link that dies *or overflows*
  marks the hub failed, stalls the run (``timed_out``), and the
  post-mortem carries the hub's own exit code (``-9`` for a SIGKILLed
  hub) in ``NetRunResult.hub_exit_codes`` — a hub death can never hang a
  run, and a relayed frame is never silently lost on a slow link.

One observability caveat is inherent to the split: data hubs emit no
per-message events (that skipped work is the scaling win), so
``SendEvent``/``DeliverEvent`` streams cover hub-0 traffic only.
Per-slot latency metrics still work — ``shard.open``/``shard.decide``
log records are control traffic and land on hub 0 — and the per-hub
frame counters in the result prove where the load went.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
from typing import Any, Mapping

from ..codec import CODEC_BINARY
from ..errors import SimulationError
from ..net.cluster import HubLink, NetCluster, NetRunResult, reap
from ..net.wire import MsgLog, Stop
from ..runtime.protocol import Protocol
from ..types import ProcessId, SystemConfig
from .hub import Endpoint, hub_worker_main
from .topology import MeshTopology
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats, MsgRelay

__all__ = ["MeshCluster"]


class MeshCluster(NetCluster):
    """A :class:`~repro.net.cluster.NetCluster` with parallel hub groups.

    Args:
        mesh: the :class:`~repro.mesh.topology.MeshTopology` — hub count,
            remote hub addresses, saturation watermark.
        shards: shard count of the workload; shard→hub attribution needs
            it on the orchestrator, every hub, and every node.
        (remaining arguments exactly as for ``NetCluster``.)
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        mesh: MeshTopology | None = None,
        shards: int = 1,
        **kwargs: Any,
    ) -> None:
        mesh = mesh if mesh is not None else MeshTopology()
        if mesh.remote and kwargs.get("transport", "uds") != "tcp":
            raise SimulationError("remote hubs need transport='tcp'")
        kwargs.setdefault("high_water", mesh.high_water)
        super().__init__(config, protocols, **kwargs)
        self.mesh = mesh
        self.hubs = mesh.hubs
        self.shards = shards
        #: live control links by hub; a hub leaves it for ``_failed_hubs``.
        self._hub_links: dict[int, HubLink] = {}
        self._failed_hubs: set[int] = set()
        self._hub_procs: dict[int, Any] = {}
        self._hub_ready: set[int] = set()
        self._hub_stats: dict[int, HubStats] = {}
        self._hub_exit_codes: dict[int, int | None] = {}
        self._run_timeout = 30.0

    # -- wiring ----------------------------------------------------------------------

    def _open(self) -> None:
        """Hub 0's listener, then every data hub: bind, fork (or record a
        remote address), dial the control link.

        Listeners are bound *in the parent* before the fork, so a node's
        dial can never race a hub that has not bound yet — the kernel
        backlog holds the connection until the child's accept loop runs
        (the :class:`~repro.mesh.wire.HubReady` barrier then holds Start
        until the child finished its handshakes)."""
        super()._open()
        listeners: dict[int, socket.socket] = {}
        for hub in range(1, self.hubs):
            remote = self.mesh.remote.get(hub)
            if remote is not None:
                self._endpoints.append((socket.AF_INET, tuple(remote)))
            else:
                listeners[hub], endpoint = self._bind(
                    f"hub{hub}.sock", self.config.n + self.hubs + 2
                )
                self._endpoints.append(endpoint)
        # Peer endpoints as the hubs see them: hub 0 routes via control.
        peer_endpoints: list[Endpoint] = [None, *self._endpoints[1:]]
        ctx = multiprocessing.get_context("fork")
        for hub, listener in listeners.items():
            proc = ctx.Process(
                target=hub_worker_main,
                args=(
                    self._run_timeout + self.connect_timeout + 30.0,
                    hub,
                    self.hubs,
                    self.shards,
                    self.config.n,
                    listener,
                    peer_endpoints,
                ),
                kwargs={
                    "seed": self.seed,
                    "mean_delay": self.mean_delay,
                    "jitter": self.jitter,
                    "max_frame": self.max_frame,
                    "link_plan": self.link_plan,
                    "high_water": self.high_water,
                },
                daemon=True,
                name=f"repro-mesh-hub-{hub}",
            )
            proc.start()
            self._hub_procs[hub] = proc
            listener.close()  # the child owns it now
        for hub in range(1, self.hubs):
            try:
                link = HubLink.dial(
                    *self._endpoints[hub],
                    HubHello(CONTROL_LINK, CODEC_BINARY),
                    self.max_frame,
                )
            except SimulationError:
                self._failed_hubs.add(hub)
                self._fault(hub, "hub-lost", "control dial failed")
                continue
            link.kind, link.ident = "control", hub
            self._hub_links[hub] = link
            self._attach(link)

    def _handshake(self) -> None:
        """Nodes first, then the Start barrier: hold until every hub
        reports its handshakes complete (a hub that never does is marked
        failed, which stalls the run loudly instead of dropping early
        frames silently)."""
        super()._handshake()
        self._poll_until(
            lambda: self._hub_ready.issuperset(self._hub_links), self.connect_timeout
        )
        for hub in set(self._hub_links) - self._hub_ready:
            self._hub_lost(self._hub_links[hub], "never reported ready")

    # -- routing ---------------------------------------------------------------------

    def _relay(
        self, owner: int, src: ProcessId, dst: ProcessId, payload: Any, depth: int
    ) -> None:
        """A frame another hub owns goes down that hub's control link — a
        node handed it to hub 0 (a mis-steered frame; counted and observed
        here, the data hub won't), or a hub without a direct peer endpoint
        relayed it through the switchboard.
        To a failed hub it goes nowhere: that run is already stalling."""
        link = self._hub_links.get(owner)
        if link is not None:
            self._write(link, [MsgRelay(src, dst, payload, depth)])

    # -- hub control links -----------------------------------------------------------

    def _handle(self, link: HubLink, msg: Any) -> None:
        if link.kind != "control":
            super()._handle(link, msg)
        elif isinstance(msg, MsgRelay):
            # Already counted as sent by the ingressing hub; the fault
            # plan and jitter apply here when hub 0 owns delivery.
            owner = self._owner_of(msg.payload)
            if owner == 0:
                self._schedule(msg.dst, msg.src, msg.payload, msg.depth, time.monotonic())
            else:
                self._relay(owner, msg.src, msg.dst, msg.payload, msg.depth)
        elif isinstance(msg, HubReady):
            self._hub_ready.add(msg.hub)
        elif isinstance(msg, HubSaturated):
            self._saturation(msg.hub, msg.depth, msg.high_water)
        elif isinstance(msg, HubStats):
            self._hub_stats[msg.hub] = msg
        elif isinstance(msg, MsgLog):  # a data hub's fault report
            self._fault(msg.pid, msg.event, f"hub {link.ident}: {msg.data.get('detail', '')}")

    def _link_lost(self, link: HubLink, kind: str) -> None:
        if kind == "control":
            self._hub_lost(link, f"control link to hub {link.ident} died")
        else:
            super()._link_lost(link, kind)

    def _hub_lost(self, link: HubLink, detail: str) -> None:
        """A control link died, overflowed or never came up: the hub is
        gone.  Mark it failed — the stall check then ends the run as timed
        out with the hub's exit code attributed in the post-mortem — never
        hang waiting on frames that can no longer arrive."""
        if self._hub_links.pop(link.ident, None) is not None:
            self._failed_hubs.add(link.ident)
            self._fault(link.ident, "hub-lost", detail)
            self._drop(link)

    # -- liveness --------------------------------------------------------------------

    def _stalled(self) -> bool:
        # a dead hub group cannot be routed around
        return bool(self._failed_hubs) or super()._stalled()

    # -- teardown --------------------------------------------------------------------

    def _shutdown(self) -> None:
        """Nodes first, then every hub: Stop down its control link, wait
        for its :class:`HubStats`, reap the forked workers."""
        self._stop_nodes()
        # Let the node workers finish (they exit promptly on the Stop/EOF
        # just issued) so a clean teardown never looks like a hub death
        # from a node's perspective.
        for proc in self._children.values():
            proc.join(timeout=1.0)
        # From here a control link closing is the expected end, not a loss.
        links, self._hub_links = self._hub_links, {}
        for link in links.values():
            self._write(link, [Stop()])
        self._poll_until(lambda: self._hub_stats.keys() >= links.keys(), 2.0)
        super()._shutdown()
        self._hub_exit_codes = {
            hub: reap(proc) for hub, proc in sorted(self._hub_procs.items())
        }

    # -- the run ---------------------------------------------------------------------

    def run(self, timeout: float = 30.0) -> NetRunResult:
        self._run_timeout = timeout
        result = super().run(timeout)
        for hub, stats in sorted(self._hub_stats.items()):
            result.hub_frame_counts[hub] = stats.frames
            result.hub_byte_counts[hub] = stats.bytes
            result.hub_frames += stats.frames
            result.hub_bytes += stats.bytes
            result.stats.messages_sent += stats.sent
            result.stats.messages_delivered += stats.delivered
        result.hub_exit_codes.update(self._hub_exit_codes)
        return result
