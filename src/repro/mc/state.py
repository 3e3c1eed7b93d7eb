"""The model checker's execution state: protocols × pending messages.

:class:`McSystem` interprets effects with exactly the semantics of the
discrete-event simulator (:class:`repro.sim.runner.Simulation`) minus time:
where the simulator orders deliveries by sampled latency, the checker keeps
every undelivered message in a *pending multiset* and lets the explorer
pick which one to deliver next.  Everything else matches —

* ``on_start`` runs once per process in pid order (start effects commute:
  the simulator also executes all starts before any delivery);
* ``Send``/``Broadcast`` push pending messages at causal depth + 1
  (broadcasts include the self-copy, as on the wire);
* ``ServiceCall`` is synchronous (the simulator's services compute replies
  at call time too); replies become pending messages from
  ``SERVICE_SENDER``, wrapped per ``reply_path`` exactly like the runner;
* decisions are first-only per process and record the causal step.

so that a schedule found here replays verbatim on the simulator
(:mod:`repro.mc.counterexample`).

Branching uses :meth:`McSystem.snapshot` / :meth:`McSystem.restore` built
on the per-protocol snapshot contract, and :meth:`McSystem.fingerprint` for
merging converging schedules.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..engine.events import (
    DecideEvent,
    DeliverEvent,
    EventSink,
    OutputEvent,
    SendEvent,
)
from ..engine.interpreter import interpret
from ..engine.run import Engine
from ..errors import SimulationError
from ..runtime.effects import SERVICE_SENDER, Deliver, ServiceCall
from ..runtime.protocol import Protocol, guarded
from ..runtime.services import Service, ServiceReply
from ..types import ProcessId, SystemConfig
from .fingerprint import fingerprint


@dataclass(frozen=True, slots=True)
class McMessage:
    """One undelivered message.

    ``uid`` is the global send counter — unique and deterministic within a
    schedule, used by the explorer to address pending messages.  It is *not*
    part of the state fingerprint (two schedules reaching the same contents
    number their messages differently) nor of serialized counterexamples
    (which match messages by ``(src, dst, payload key)`` instead).
    """

    uid: int
    src: ProcessId
    dst: ProcessId
    payload: Any
    depth: int


class McSystem(Engine):
    """A branchable global state of one protocol composition.

    Effect semantics come from :mod:`repro.engine.interpreter`, validation
    and the service/log ports from :class:`~repro.engine.run.Engine`; this
    class adds the pending-multiset scheduling described above and keeps
    its own tuple books (see :attr:`decisions`).

    Args:
        config: system parameters.
        protocols: one protocol per process id (byzantine behaviors
            included, exactly as for the simulator).
        services: trusted services by name; service calls execute
            synchronously and their state is captured by snapshots.
        faulty: byzantine process ids (invariants quantify over the rest).
        payload_key: canonical payload encoding used in schedule records
            (default ``repr``; must match the replay scheduler's).
        event_sink: optional structured-event sink; event ``time`` is the
            delivery index.  Deliberately *not* captured by snapshots: a
            sink observes one schedule linearly (e.g. counterexample
            replay), not the branching exploration.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        services: Mapping[str, Service] | None = None,
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        payload_key: Callable[[Any], str] = repr,
        event_sink: EventSink | None = None,
    ) -> None:
        super().__init__(config, protocols, faulty, services, event_sink)
        self.protocols = dict(protocols)
        self.payload_key = payload_key
        self.pending: dict[int, McMessage] = {}
        #: pid -> (value, DecisionKind, step); first decision only.  A tuple
        #: book, not the engine's time-stamped ``Decision``s: decisions are
        #: part of the fingerprint, and a stamp would split states that
        #: differ only in *when* a process decided.  (``stats`` and
        #: ``_undecided_correct`` therefore stay unused here.)
        self.decisions: dict[ProcessId, tuple[Any, Any, int]] = {}
        #: pid -> [(tag, sender, value)] top-level Deliver upcalls — plain
        #: tuples too: they are re-fingerprinted at every explored state.
        self.outputs: dict[ProcessId, list[tuple[str, ProcessId, Any]]] = {
            pid: [] for pid in config.processes
        }
        self.counter = 0
        self.deliveries = 0
        #: uid -> names of services the delivery of uid called (DPOR
        #: dependence data; observed at execution, not part of snapshots —
        #: see Explorer for the soundness argument).
        self.footprints: dict[int, frozenset[str]] = {}
        self._footprint: set[str] = set()
        self._started = False
        self._services_picklable: bool | None = None
        # Incremental fingerprint caches: a delivery mutates exactly one
        # protocol (and the services it calls), so per-process digests are
        # invalidated selectively instead of re-walking every object graph.
        self._proto_fp: dict[ProcessId, str | None] = {
            pid: None for pid in config.processes
        }
        self._services_fp: str | None = None

    # -- execution -----------------------------------------------------------------

    def start(self) -> None:
        """Run every process's ``on_start`` (pid order), once."""
        if self._started:
            raise SimulationError("McSystem.start() called twice")
        self._started = True
        for pid in self.config.processes:
            self._footprint = set()
            interpret(self, pid, self.protocols[pid].on_start(), 0)

    def deliver(self, uid: int) -> frozenset[str]:
        """Deliver pending message ``uid``; returns its service footprint."""
        message = self.pending.pop(uid)
        self._footprint = set()
        if self._delivers is not None:
            self._delivers.emit(
                DeliverEvent(
                    float(self.deliveries),
                    message.dst,
                    message.src,
                    message.payload,
                    message.depth,
                )
            )
        effects = guarded(self.protocols[message.dst], message.src, message.payload)
        interpret(self, message.dst, effects, message.depth)
        self.deliveries += 1
        footprint = frozenset(self._footprint)
        self.footprints[uid] = footprint
        self._proto_fp[message.dst] = None
        if footprint:
            self._services_fp = None
        return footprint

    def run_fifo(self, max_deliveries: int = 200_000) -> None:
        """Execute the FIFO baseline schedule: deliver the oldest pending
        message until every correct process decided (or nothing is left).

        This is the single-schedule entry point behind ``engine="mc"`` —
        the model checker's state machine driven like a runner, useful for
        cross-engine equivalence checks without launching an exploration.
        """
        if not self._started:
            self.start()
        delivered = 0
        while self.pending and not self.all_correct_decided():
            if delivered >= max_deliveries:
                raise SimulationError(
                    f"exceeded max_deliveries={max_deliveries}; likely livelock"
                )
            self.deliver(min(self.pending))
            delivered += 1

    # -- ExecutionPorts (broadcast inherits the per-destination default) --------------

    def now(self) -> float:
        """The delivery index: the checker's only clock."""
        return float(self.deliveries)

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        uid = self.counter
        self.counter += 1
        self.pending[uid] = McMessage(uid, src, dst, payload, depth)
        if self._sends is not None:
            self._sends.emit(SendEvent(float(self.deliveries), src, dst, payload, depth))

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        if pid not in self.decisions:
            self.decisions[pid] = (value, kind, depth)
            if self._events is not None:
                self._events.emit(
                    DecideEvent(float(self.deliveries), pid, value, kind, depth)
                )

    def output(self, pid: ProcessId, effect: Deliver, depth: int) -> None:
        self.outputs[pid].append((effect.tag, effect.sender, effect.value))
        if self._events is not None:
            self._events.emit(
                OutputEvent(self.now(), pid, effect.tag, effect.sender, effect.value)
            )

    def service_call(self, pid: ProcessId, call: ServiceCall, depth: int) -> None:
        self._footprint.add(call.service)
        super().service_call(pid, call, depth)

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        self.send(SERVICE_SENDER, reply.dst, payload, reply.depth)

    # -- observability --------------------------------------------------------------

    def all_correct_decided(self) -> bool:
        return all(pid in self.decisions for pid in self.correct)

    def correct_decisions(self) -> dict[ProcessId, tuple[Any, Any, int]]:
        return {p: d for p, d in self.decisions.items() if p not in self.faulty}

    def delivery_overtakes(self) -> list[tuple[int, tuple[int, ...]]]:
        """Pending uids with the older same-destination uids each overtakes.

        Delivering a message *overtakes* every older pending message bound
        for the same destination.  The explorer's delay budget bounds the
        number of distinct messages overtaken along a schedule, so the
        per-candidate data here is the overtaken *set*, not a count: a
        message that has already been overtaken once is free to overtake
        again.  The oldest pending message of every destination overtakes
        nothing, so a budget never deadlocks exploration — the FIFO
        baseline always remains affordable.
        """
        older: dict[ProcessId, list[int]] = {}
        out: list[tuple[int, tuple[int, ...]]] = []
        for uid in sorted(self.pending):
            dst = self.pending[uid].dst
            seen = older.setdefault(dst, [])
            out.append((uid, tuple(seen)))
            seen.append(uid)
        return out

    def message_key(self, uid: int) -> tuple[ProcessId, ProcessId, int, str]:
        """Content identity of a pending message (uid-independent).

        Used wherever uid sets from *different* schedules must be compared
        (the explorer's visited-state dominance check): two schedules
        reaching the same state may number the same message differently,
        but its content key is schedule-invariant.
        """
        message = self.pending[uid]
        return (
            message.src,
            message.dst,
            message.depth,
            self.payload_key(message.payload),
        )

    def schedule_record(self, uid: int) -> tuple[ProcessId, ProcessId, str]:
        """The serializable ``(src, dst, payload key)`` form of a pending
        message — the unit of counterexample traces."""
        message = self.pending[uid]
        return (message.src, message.dst, self.payload_key(message.payload))

    # -- branching ------------------------------------------------------------------

    def _services_token(self) -> Any:
        """Pickle the services when possible (same trade as
        :meth:`~repro.runtime.protocol.Protocol.snapshot`), else deepcopy."""
        if self._services_picklable is not False:
            try:
                blob = pickle.dumps(self.services, pickle.HIGHEST_PROTOCOL)
            except Exception:
                self._services_picklable = False
            else:
                self._services_picklable = True
                return blob
        return copy.deepcopy(self.services)

    def snapshot(self) -> Any:
        """Capture the full branchable state as a reusable token."""
        return (
            {pid: proto.snapshot() for pid, proto in self.protocols.items()},
            self._services_token(),
            dict(self.pending),
            dict(self.decisions),
            {pid: list(out) for pid, out in self.outputs.items()},
            self.counter,
            self.deliveries,
            dict(self._proto_fp),
            self._services_fp,
        )

    def restore(self, token: Any) -> None:
        (
            protocols,
            services,
            pending,
            decisions,
            outputs,
            counter,
            deliveries,
            proto_fp,
            services_fp,
        ) = token
        for pid, state in protocols.items():
            self.protocols[pid].restore(state)
        self.services = (
            pickle.loads(services)
            if isinstance(services, bytes)
            else copy.deepcopy(services)
        )
        self.pending = dict(pending)
        self.decisions = dict(decisions)
        self.outputs = {pid: list(out) for pid, out in outputs.items()}
        self.counter = counter
        self.deliveries = deliveries
        self._proto_fp = dict(proto_fp)
        self._services_fp = services_fp

    def fingerprint(self) -> str:
        """Canonical digest of the global state (uid-independent).

        Per-process digests are cached between deliveries (a delivery
        mutates one protocol only), which turns the dominant cost of state
        matching from O(system) into O(one process) per step.
        """
        for pid, cached in self._proto_fp.items():
            if cached is None:
                self._proto_fp[pid] = fingerprint(self.protocols[pid])
        if self._services_fp is None:
            self._services_fp = fingerprint(self.services)
        key = self.payload_key
        pending = sorted(
            (m.src, m.dst, m.depth, key(m.payload)) for m in self.pending.values()
        )
        return fingerprint(
            self._proto_fp,
            self._services_fp,
            pending,
            self.decisions,
            self.outputs,
        )
