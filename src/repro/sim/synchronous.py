"""Lockstep rounds: the ``engine="sync"`` backend.

Every message sent during round ``r`` is delivered at round ``r + 1``, so
the synchronous model of Table 1's Mostefaoui et al. row needs no engine
of its own: :class:`~repro.baselines.sync_onestep.SyncOneStepConsensus` is
an ordinary protocol here, and its crash model is the
:class:`~repro.engine.faults.RoundCrash` fault.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..engine.events import DeliverEvent, EventSink, RoundEvent, SendEvent
from ..engine.interpreter import interpret
from ..engine.run import Engine, RunResult
from ..errors import SimulationDeadlock, SimulationError
from ..runtime.effects import SERVICE_SENDER
from ..runtime.protocol import Protocol, guarded
from ..runtime.services import Service, ServiceReply
from ..types import ProcessId, SystemConfig


class LockstepSimulation(Engine):
    """Run sans-IO protocols in deterministic lockstep rounds.

    This is the ``engine="sync"`` backend of
    :class:`~repro.harness.Scenario`: the same
    :class:`~repro.runtime.protocol.Protocol` objects as the other
    backends, but with a maximally synchronous schedule — every message
    sent during round ``r`` is delivered (in send order) at round
    ``r + 1``, so all processes see complete, identical rounds.  A useful
    extreme for cross-engine equivalence checks: causal step accounting is
    identical, scheduling noise is zero.  Effects go through the shared
    interpreter, the books are :class:`~repro.engine.run.Engine`'s.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        services: Mapping[str, Service] | None = None,
        event_sink: EventSink | None = None,
        max_rounds: int = 10_000,
    ) -> None:
        super().__init__(config, protocols, faulty, services, event_sink)
        self.protocols = dict(protocols)
        self.max_rounds = max_rounds
        self.time = 0.0
        self._depths: dict[ProcessId, int] = {pid: 0 for pid in config.processes}
        #: messages to deliver next round, in send order.
        self._next: list[tuple[ProcessId, ProcessId, Any, int]] = []

    def now(self) -> float:
        return self.time

    # -- ExecutionPorts (broadcast inherits the per-destination default) --------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        self.stats.messages_sent += 1
        self._next.append((dst, src, payload, depth))
        if self._sends is not None:
            self._sends.emit(SendEvent(self.time, src, dst, payload, depth))

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        self._next.append((reply.dst, SERVICE_SENDER, payload, reply.depth))

    # -- round loop -------------------------------------------------------------------

    def run_until_decided(self) -> RunResult:
        """Run rounds until every correct process decided (``end_time`` is
        the final round number)."""
        for pid in self.config.processes:
            interpret(self, pid, self.protocols[pid].on_start(), 0)
        round_ = 0
        while self._next and self._undecided_correct:
            round_ += 1
            if round_ > self.max_rounds:
                raise SimulationError(
                    f"exceeded max_rounds={self.max_rounds}; likely livelock"
                )
            self.time = float(round_)
            if self._events is not None:
                self._events.emit(RoundEvent(self.time, -1, round_))
            inbox, self._next = self._next, []
            for dst, sender, payload, depth in inbox:
                if depth > self._depths[dst]:
                    self._depths[dst] = depth
                self.stats.messages_delivered += 1
                if self._delivers is not None:
                    self._delivers.emit(
                        DeliverEvent(self.time, dst, sender, payload, depth)
                    )
                effects = guarded(self.protocols[dst], sender, payload)
                interpret(self, dst, effects, depth)
        if self._undecided_correct and not self._next:
            raise SimulationDeadlock(frozenset(self._undecided_correct))
        return self._result(drained=not self._next, depths=dict(self._depths))
