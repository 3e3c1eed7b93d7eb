"""The mesh orchestrator: hub 0 plus forked hub groups under one run.

:class:`MeshCluster` extends the star topology's :class:`~repro.net.
cluster.NetCluster` rather than replacing it — hub 0 *is* the base class:
the orchestrator keeps the listener, the event stream, the trusted
services, the fault plans, the liveness deadline and the crash-recovery
machinery, all unchanged.  The mesh adds, around that core:

* pre-bound listeners and forked :class:`~repro.mesh.hub.HubWorker`
  processes for hubs ``1..hubs-1`` (or dialed addresses for hubs the
  operator runs elsewhere via ``repro hub`` — ``MeshTopology.remote``);
* one control link per hub, registered in the same selector loop as the
  node connections — carrying :class:`~repro.mesh.wire.HubReady` (the
  Start barrier), :class:`~repro.mesh.wire.HubSaturated` (surfaced as
  typed events), relayed frames, and the final :class:`~repro.mesh.wire.
  HubStats`;
* mesh-aware node workers (:func:`~repro.mesh.node.mesh_node_main`) that
  dial every hub and steer data frames by shard;
* loud hub-failure semantics: a dead control link marks the hub failed,
  stalls the run (``timed_out``), and the post-mortem carries the hub's
  own exit code (``-9`` for a SIGKILLed hub) in
  ``NetRunResult.hub_exit_codes`` — a hub death can never hang a run.

With ``hubs == 1`` every override is a no-op and the cluster *is* a
``NetCluster``: same worker entry point, same RNG stream, same digests.

One observability caveat is inherent to the split: data hubs emit no
per-message events (that skipped work is the scaling win), so
``SendEvent``/``DeliverEvent`` streams cover hub-0 traffic only.
Per-slot latency metrics still work — ``shard.open``/``shard.decide``
log records are control traffic and land on hub 0 — and the per-hub
frame counters in the result prove where the load went.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import socket
import time
from typing import Any, Mapping

from ..errors import SimulationError
from ..net.cluster import NetCluster, NetRunResult
from ..net.wire import MsgSend, Stop, WireError
from ..runtime.protocol import Protocol
from ..shard.router import UNATTRIBUTED, hub_of, shard_of_payload
from ..types import ProcessId, SystemConfig
from .hub import Endpoint, HubLink, hub_worker_main
from .node import mesh_node_main
from .topology import MeshTopology
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats, MsgRelay

__all__ = ["MeshCluster"]


class _HubCtl:
    """Orchestrator-side control link to one hub group."""

    __slots__ = ("hub", "link", "remote")

    def __init__(self, hub: int, link: HubLink, remote: bool) -> None:
        self.hub = hub
        self.link = link
        self.remote = remote

    @property
    def sock(self) -> socket.socket:
        return self.link.sock

    @property
    def decoder(self):
        return self.link.decoder


class MeshCluster(NetCluster):
    """A :class:`~repro.net.cluster.NetCluster` with parallel hub groups.

    Args:
        mesh: the :class:`~repro.mesh.topology.MeshTopology` — hub count,
            node-side routing mode, remote hub addresses, saturation
            watermark.
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
        self.shards = shards
        self._seed = kwargs.get("seed", 0)
        #: dialable per-hub endpoints, index 0 = the orchestrator's listener.
        self._endpoints: list[tuple[int, Any]] = []
        self._hub_ctl: dict[int, _HubCtl] = {}
        self._hub_procs: dict[int, Any] = {}
        self._hub_ready: set[int] = set()
        self._hub_stats: dict[int, HubStats] = {}
        self._hub_exit_codes: dict[int, int | None] = {}
        self._failed_hubs: set[int] = set()
        self._run_timeout = 30.0

    # -- wiring ----------------------------------------------------------------------

    def _make_listener(self) -> tuple[socket.socket, int, Any]:
        listener, family, address = super()._make_listener()
        self._endpoints = [(family, address)]
        if self.mesh.hubs > 1:
            self._start_hubs(family)
        return listener, family, address

    def _bind_hub_listener(self, hub: int, family: int) -> tuple[socket.socket, Any]:
        if family == socket.AF_UNIX:
            assert self._uds_dir is not None
            path = os.path.join(self._uds_dir, f"hub{hub}.sock")
            hub_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            hub_listener.bind(path)
            hub_address: Any = path
        else:
            hub_listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            hub_listener.bind(("127.0.0.1", 0))
            hub_address = hub_listener.getsockname()
        hub_listener.listen(self.config.n + self.mesh.hubs + 2)
        return hub_listener, hub_address

    def _start_hubs(self, family: int) -> None:
        """Bind, fork (or record) every data hub, then dial control links.

        Listeners are bound *in the parent* before the fork, so a node's
        dial can never race a hub that has not bound yet — the kernel
        backlog holds the connection until the child's accept loop runs
        (the :class:`~repro.mesh.wire.HubReady` barrier then holds Start
        until the child finished its handshakes)."""
        ctx = multiprocessing.get_context("fork")
        deadline = self._run_timeout + self.connect_timeout + 30.0
        pending: list[tuple[int, socket.socket]] = []
        for hub in range(1, self.mesh.hubs):
            remote = self.mesh.remote.get(hub)
            if remote is not None:
                self._endpoints.append((socket.AF_INET, tuple(remote)))
                continue
            hub_listener, hub_address = self._bind_hub_listener(hub, family)
            self._endpoints.append((family, hub_address))
            pending.append((hub, hub_listener))
        # Peer endpoints as the hubs see them: hub 0 routes via control.
        peer_endpoints: list[Endpoint] = [None] + [
            self._endpoints[h] for h in range(1, self.mesh.hubs)
        ]
        for hub, hub_listener in pending:
            proc = ctx.Process(
                target=hub_worker_main,
                args=(
                    hub,
                    self.mesh.hubs,
                    self.shards,
                    self.config.n,
                    hub_listener,
                    peer_endpoints,
                    self._seed,
                    self.mean_delay,
                    self.jitter,
                    self.codec,
                    self.max_frame,
                    self.link_plan,
                    self.high_water,
                    deadline,
                ),
                daemon=True,
                name=f"repro-mesh-hub-{hub}",
            )
            proc.start()
            self._hub_procs[hub] = proc
            hub_listener.close()  # the child owns it now
        for hub in range(1, self.mesh.hubs):
            fam, addr = self._endpoints[hub]
            try:
                link = HubLink.dial(
                    fam,
                    addr,
                    HubHello(CONTROL_LINK, self.codec),
                    self.codec,
                    self.max_frame,
                )
            except SimulationError:
                self._failed_hubs.add(hub)
                self.events.fault(hub, "hub-lost", "control dial failed")
                continue
            link.sock.settimeout(1.0)
            self._hub_ctl[hub] = _HubCtl(hub, link, hub in self.mesh.remote)

    def _spawn(self, family: int, address: Any) -> dict[ProcessId, Any]:
        if self.mesh.hubs == 1:
            return super()._spawn(family, address)
        ctx = multiprocessing.get_context("fork")
        children = {}
        for pid in self.config.processes:
            proc = ctx.Process(
                target=mesh_node_main,
                args=(pid, self.protocols[pid], list(self._endpoints), self.shards),
                kwargs={
                    "route": self.mesh.route,
                    "codec": self.codec,
                    "max_frame": self.max_frame,
                    "crash": self.chaos.get(pid),
                },
                daemon=True,
                name=f"repro-mesh-node-{pid}",
            )
            proc.start()
            children[pid] = proc
        self._children = children
        return children

    def _relaunch(self, pid: ProcessId) -> None:
        if self.mesh.hubs == 1:
            super()._relaunch(pid)
            return
        plan = self.restarts.get(pid)
        ctx = multiprocessing.get_context("fork")
        if plan is not None:
            args: tuple[Any, ...] = (pid, None, list(self._endpoints), self.shards)
            kwargs: dict[str, Any] = {"build": plan.factory}
        else:
            args = (pid, self.protocols[pid], list(self._endpoints), self.shards)
            kwargs = {}
        proc = ctx.Process(
            target=mesh_node_main,
            args=args,
            kwargs={
                "route": self.mesh.route,
                "codec": self.codec,
                "max_frame": self.max_frame,
                **kwargs,
            },
            daemon=True,
            name=f"repro-mesh-node-{pid}-r",
        )
        proc.start()
        self._children[pid] = proc

    def _accept_all(self, listener: socket.socket) -> None:
        super()._accept_all(listener)
        self._await_hub_ready()

    def _await_hub_ready(self) -> None:
        """The Start barrier: hold until every hub reports its handshakes
        complete (a hub that never does is marked failed, which stalls the
        run loudly instead of dropping early frames silently)."""
        deadline = time.monotonic() + self.connect_timeout
        while time.monotonic() < deadline:
            pending = [
                hub
                for hub in self._hub_ctl
                if hub not in self._hub_ready and hub not in self._failed_hubs
            ]
            if not pending:
                break
            for hub in pending:
                ctl = self._hub_ctl.get(hub)
                if ctl is None:
                    continue
                ctl.sock.settimeout(0.1)
                try:
                    data = ctl.sock.recv(4096)
                except TimeoutError:
                    continue
                except OSError:
                    data = b""
                if not data:
                    self._hub_lost(ctl)
                    continue
                for msg in ctl.decoder.feed(data):
                    self._handle_hub(ctl, msg)
        for hub in self._hub_ctl:
            if hub not in self._hub_ready and hub not in self._failed_hubs:
                self._failed_hubs.add(hub)
                self.events.fault(hub, "hub-lost", "never reported ready")
        for ctl in self._hub_ctl.values():
            ctl.sock.settimeout(1.0)

    def _register_extra(self) -> None:
        assert self._selector is not None
        for hub, ctl in self._hub_ctl.items():
            if hub not in self._failed_hubs:
                self._selector.register(ctl.sock, selectors.EVENT_READ, ctl)

    # -- routing ---------------------------------------------------------------------

    def _owner_of(self, payload: Any) -> int:
        shard = shard_of_payload(payload, self.shards)
        return 0 if shard == UNATTRIBUTED else hub_of(shard, self.mesh.hubs)

    def _route(self, src: ProcessId, msg: MsgSend) -> None:
        if self.mesh.hubs > 1:
            owner = self._owner_of(msg.payload)
            if owner != 0:
                # A node handed hub 0 a frame another hub owns (the
                # ``hub0`` routing mode, or an unsteered client): count
                # and observe it here — the data hub won't — then relay.
                self.stats.messages_sent += 1
                self.events.send(src, msg.dst, msg.payload, msg.depth)
                ctl = self._hub_ctl.get(owner)
                if ctl is not None and owner not in self._failed_hubs:
                    ctl.link.send(MsgRelay(src, msg.dst, msg.payload, msg.depth))
                return
        super()._route(src, msg)

    def _ingress_relay(self, msg: MsgRelay) -> None:
        """A relayed frame arriving on a control link: deliver if hub 0
        owns it, forward to the owner's control link otherwise (the
        orchestrator is the relay switchboard for hubs without a direct
        peer endpoint)."""
        owner = self._owner_of(msg.payload)
        if owner == 0:
            # Already counted as sent by the ingressing hub; the fault
            # plan and jitter apply here because hub 0 owns delivery.
            for extra in self.link_plan.route(msg.src, msg.dst, self.rng):
                base = 0.0 if msg.dst == msg.src else self._jitter()
                self._schedule(msg.dst, msg.src, msg.payload, msg.depth, base + extra)
            return
        ctl = self._hub_ctl.get(owner)
        if ctl is not None and owner not in self._failed_hubs:
            ctl.link.send(msg)

    # -- hub control links -----------------------------------------------------------

    def _pump(self, conn: Any) -> None:
        if isinstance(conn, _HubCtl):
            self._pump_hub(conn)
            return
        super()._pump(conn)

    def _pump_hub(self, ctl: _HubCtl) -> None:
        try:
            data = ctl.sock.recv(65536)
        except TimeoutError:
            return
        except OSError:
            data = b""
        if not data:
            self._hub_lost(ctl)
            return
        for msg in ctl.decoder.feed(data):
            self._handle_hub(ctl, msg)

    def _handle_hub(self, ctl: _HubCtl, msg: Any) -> None:
        if isinstance(msg, MsgRelay):
            self._ingress_relay(msg)
        elif isinstance(msg, HubReady):
            self._hub_ready.add(msg.hub)
        elif isinstance(msg, HubSaturated):
            self.events.saturated(msg.hub, msg.depth, msg.high_water)
        elif isinstance(msg, HubStats):
            self._hub_stats[msg.hub] = msg

    def _hub_lost(self, ctl: _HubCtl) -> None:
        """A control link died mid-run: the hub is gone.  Mark it failed —
        the stall check then ends the run as timed out with the hub's exit
        code attributed in the post-mortem — never hang waiting on frames
        that can no longer arrive."""
        if ctl.hub in self._failed_hubs:
            return
        self._failed_hubs.add(ctl.hub)
        self.events.fault(ctl.hub, "hub-lost", f"control link to hub {ctl.hub} died")
        if self._selector is not None:
            try:
                self._selector.unregister(ctl.sock)
            except (KeyError, ValueError):
                pass
        ctl.link.close()

    # -- liveness --------------------------------------------------------------------

    def _stalled(self) -> bool:
        if self._failed_hubs and self.mesh.hubs > 1:
            return True  # a dead hub group cannot be routed around
        return super()._stalled()

    # -- teardown --------------------------------------------------------------------

    def _shutdown(self, listener: socket.socket) -> None:
        uds_dir = self._uds_dir
        super()._shutdown(listener)  # nodes get Stop; hub-0 housekeeping
        if self.mesh.hubs > 1:
            self._teardown_hubs()
            if uds_dir is not None:
                for hub in range(1, self.mesh.hubs):
                    try:
                        os.unlink(os.path.join(uds_dir, f"hub{hub}.sock"))
                    except OSError:
                        pass
                try:
                    os.rmdir(uds_dir)
                except OSError:
                    pass

    def _teardown_hubs(self) -> None:
        """Stop every hub, collect its :class:`HubStats`, reap the forked
        workers and record their exit codes."""
        # Let the node workers finish first (they exit promptly on the
        # Stop/EOF the base shutdown just issued) so a clean teardown
        # never looks like a hub death from a node's perspective.
        for proc in self._children.values():
            try:
                proc.join(timeout=1.0)
            except (ValueError, AssertionError):
                pass
        for hub, ctl in sorted(self._hub_ctl.items()):
            if hub in self._failed_hubs:
                continue
            ctl.link.send(Stop())
            deadline = time.monotonic() + 2.0
            ctl.sock.settimeout(0.5)
            while hub not in self._hub_stats and time.monotonic() < deadline:
                try:
                    data = ctl.sock.recv(4096)
                except (TimeoutError, OSError):
                    break
                if not data:
                    break
                try:
                    for msg in ctl.decoder.feed(data):
                        self._handle_hub(ctl, msg)
                except WireError:
                    break
            ctl.link.close()
        for hub, proc in sorted(self._hub_procs.items()):
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            self._hub_exit_codes[hub] = proc.exitcode
            proc.close()
        self._hub_procs.clear()

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
