"""Synchronous round-based simulation with crash failures.

The comparison row "Mostefaoui et.al [11]" of the paper's Table 1 lives in
a different system model: *synchronous* rounds and *crash* failures, where
one-step decision is possible with only ``n > t`` processes.  This engine
provides that model:

* execution proceeds in lock-step rounds; every process broadcasts one
  message per round and receives the round's messages from all processes
  that actually sent to it;
* a crashing process stops at a scheduled round, after its message reached
  only an adversary-chosen subset of recipients — the classic source of
  asymmetric views in synchronous crash consensus.

Protocols implement :class:`SyncProtocol`: ``first_message()`` produces the
round-1 broadcast, ``on_round(round, received)`` consumes one round's
deliveries and returns the next broadcast (or ``None`` to fall silent) and
optionally a decision.  The engine never lets a crashed process speak
again, and reports per-process decisions with the deciding round.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..engine.events import (
    DecideEvent,
    DeliverEvent,
    EventSink,
    RoundEvent,
    SendEvent,
    reader,
)
from ..engine.interpreter import interpret
from ..engine.run import Engine, RunResult, Verdicts, check_deployment
from ..errors import SimulationDeadlock, SimulationError
from ..runtime.effects import SERVICE_SENDER
from ..runtime.protocol import Protocol, guarded
from ..runtime.services import Service, ServiceReply
from ..types import DecisionKind, ProcessId, SystemConfig, Value


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """When and how a process crashes.

    Attributes:
        round: the round during which the crash happens (1-based); the
            process participates fully in earlier rounds.
        delivered_to: recipients that still receive its final-round
            message; ``None`` means an adversary-chosen random subset.
    """

    round: int
    delivered_to: frozenset[ProcessId] | None = None


@dataclass(frozen=True, slots=True)
class SyncDecision:
    """A decision made in the synchronous model."""

    value: Value
    round: int


class SyncProtocol(abc.ABC):
    """A protocol for the lock-step synchronous model."""

    def __init__(self, process_id: ProcessId, config: SystemConfig) -> None:
        self.process_id = process_id
        self.config = config

    @abc.abstractmethod
    def first_message(self) -> Any:
        """The message broadcast in round 1."""

    @abc.abstractmethod
    def on_round(
        self, round_: int, received: Mapping[ProcessId, Any]
    ) -> tuple[Any, Value | None]:
        """Consume round ``round_``'s deliveries.

        Returns:
            ``(next_message, decision)`` — ``next_message`` is broadcast in
            the following round (``None`` = send nothing), ``decision`` is
            a value to decide now (``None`` = keep going).  The engine
            records only the first decision and keeps running the protocol
            so late processes still receive its floods.
        """


class SynchronousSimulation:
    """Run synchronous protocols under a crash schedule.

    Args:
        config: system parameters; at most ``t`` crash events allowed.
        protocols: one protocol per process.
        crashes: crash schedule (subset of processes).
        seed: randomises adversary-chosen delivery subsets.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, SyncProtocol],
        crashes: Mapping[ProcessId, CrashEvent] | None = None,
        seed: int = 0,
        event_sink: EventSink | None = None,
    ) -> None:
        crashes = dict(crashes or {})
        check_deployment(config, protocols, crashes)  # a crash is a fault
        self.config = config
        self.protocols = dict(protocols)
        self.crashes = crashes
        self.rng = random.Random(seed)
        self._events = event_sink
        self._delivers = reader(event_sink, DeliverEvent)

    @property
    def faulty(self) -> frozenset[ProcessId]:
        return frozenset(self.crashes)

    @property
    def correct(self) -> list[ProcessId]:
        return [p for p in self.config.processes if p not in self.crashes]

    def run(self, max_rounds: int) -> "SyncRunResult":
        """Execute up to ``max_rounds`` rounds."""
        decisions: dict[ProcessId, SyncDecision] = {}
        crashed: set[ProcessId] = set()
        outbox: dict[ProcessId, Any] = {
            pid: protocol.first_message() for pid, protocol in self.protocols.items()
        }
        for round_ in range(1, max_rounds + 1):
            if self._events is not None:
                self._events.emit(RoundEvent(float(round_), -1, round_))
            deliveries: dict[ProcessId, dict[ProcessId, Any]] = {
                pid: {} for pid in self.config.processes
            }
            for sender, message in outbox.items():
                if message is None or sender in crashed:
                    continue
                event = self.crashes.get(sender)
                if event is not None and event.round == round_:
                    recipients = event.delivered_to
                    if recipients is None:
                        cut = self.rng.randint(0, self.config.n)
                        recipients = frozenset(
                            self.rng.sample(range(self.config.n), cut)
                        )
                    crashed.add(sender)
                elif event is not None and event.round < round_:
                    crashed.add(sender)
                    continue
                else:
                    recipients = frozenset(self.config.processes)
                for dst in recipients:
                    deliveries[dst][sender] = message
            next_outbox: dict[ProcessId, Any] = {}
            for pid, protocol in self.protocols.items():
                if pid in crashed:
                    continue
                if self._delivers is not None:
                    for sender, message in deliveries[pid].items():
                        self._delivers.emit(
                            DeliverEvent(float(round_), pid, sender, message, round_)
                        )
                message, decision = protocol.on_round(round_, deliveries[pid])
                next_outbox[pid] = message
                if decision is not None and pid not in decisions:
                    decisions[pid] = SyncDecision(decision, round_)
                    if self._events is not None:
                        self._events.emit(
                            DecideEvent(
                                float(round_), pid, decision, DecisionKind.UNDERLYING, round_
                            )
                        )
            outbox = next_outbox
            if all(pid in decisions for pid in self.correct):
                break
        return SyncRunResult(
            config=self.config,
            decisions=decisions,
            faulty=self.faulty,
            rounds=round_,
        )


@dataclass
class SyncRunResult(Verdicts):
    """Outcome of a synchronous run: round-stamped decisions under the
    same predicates as every other result."""

    config: SystemConfig
    decisions: dict[ProcessId, SyncDecision]
    faulty: frozenset[ProcessId]
    rounds: int
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def max_decision_round(self) -> int:
        return max((d.round for d in self.correct_decisions.values()), default=0)


class LockstepSimulation(Engine):
    """Run *asynchronous* sans-IO protocols in deterministic lockstep rounds.

    This is the ``engine="sync"`` backend of
    :class:`~repro.harness.Scenario`: the same
    :class:`~repro.runtime.protocol.Protocol` objects as the other
    backends, but with a maximally synchronous schedule — every message
    sent during round ``r`` is delivered (in send order) at round
    ``r + 1``, so all processes see complete, identical rounds.  A useful
    extreme for cross-engine equivalence checks: causal step accounting is
    identical, scheduling noise is zero.

    Not to be confused with :class:`SynchronousSimulation`, which hosts
    round-*native* :class:`SyncProtocol` implementations (the Mostefaoui
    Table-1 row); this class is a scheduling policy for effect-based
    protocols — effects go through the shared interpreter, the books are
    :class:`~repro.engine.run.Engine`'s.
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
