"""What every engine keeps and returns: one set of books, one result.

The four engines differ in *scheduling* — a virtual clock, lockstep
rounds, a pending multiset, real sockets — and in nothing else.  This module owns the rest, once:

* :func:`check_deployment` — the deployment every engine refuses;
* :class:`Engine` — the books (decisions, outputs, stats) and the ports
  that only write them, parameterised by one :meth:`Engine.now` per engine;
* :class:`RunResult` — what a finished run returns, with the predicates the
  paper's properties are stated in (they quantify over the *correct*
  processes of one run).

It does not import the simulator, so the socket engine's hub 0 keeps its
books here without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import SimulationError
from ..runtime.effects import Deliver, Log, ServiceCall
from ..runtime.protocol import Protocol
from ..runtime.services import Service, ServiceReply
from ..types import Decision, ProcessId, RunStats, SystemConfig
from .events import (
    DecideEvent,
    DeliverEvent,
    EventSink,
    LogEvent,
    OutputEvent,
    SendEvent,
    ServiceEvent,
    reader,
)
from .interpreter import ExecutionPorts, dispatch_service_call

#: The simulator's livelock valve: events one run may process by default.
DEFAULT_MAX_EVENTS = 2_000_000


def check_deployment(
    config: SystemConfig, protocols: Mapping[ProcessId, Protocol], faulty
) -> frozenset[ProcessId]:
    """Refuse a deployment no engine may run; returns ``faulty`` frozen.

    Raises:
        SimulationError: ``protocols`` does not cover exactly the process
            ids of ``config``, or more than ``t`` processes are declared
            faulty (every guarantee of the paper assumes at most ``t``).
    """
    if set(protocols) != set(config.processes):
        raise SimulationError(
            "protocols must cover exactly the process ids of the config"
        )
    faulty = frozenset(faulty)
    if len(faulty) > config.t:
        raise SimulationError(
            f"{len(faulty)} faulty processes exceed the bound t={config.t}"
        )
    return faulty


class Verdicts:
    """The run predicates, over ``config``, ``decisions`` and ``faulty``."""

    @property
    def correct(self) -> list[ProcessId]:
        return [p for p in self.config.processes if p not in self.faulty]

    @property
    def correct_decisions(self) -> dict[ProcessId, Any]:
        """Decisions of correct processes only (the ones the properties
        quantify over)."""
        return {p: d for p, d in self.decisions.items() if p not in self.faulty}

    @property
    def undecided_correct(self) -> frozenset[ProcessId]:
        """Correct processes that had not decided when the run ended."""
        return frozenset(p for p in self.correct if p not in self.decisions)

    def agreement_holds(self) -> bool:
        """Agreement: all correct deciders decided the same value."""
        return len({d.value for d in self.correct_decisions.values()}) <= 1

    def all_correct_decided(self) -> bool:
        """Termination (within this run)."""
        return not self.undecided_correct

    @property
    def decided_value(self) -> Any:
        """The agreed value (requires agreement to hold and someone decided)."""
        values = {d.value for d in self.correct_decisions.values()}
        if len(values) != 1:
            raise SimulationError(f"no single decided value: {values!r}")
        return next(iter(values))


@dataclass
class RunResult(Verdicts):
    """Everything observable about one finished run, on any engine.

    ``end_time`` and every ``Decision.time`` are seconds on the engine's
    own clock, starting at 0 when the run does: virtual time on ``sim``,
    the round number on ``sync``, the delivery index on ``mc``, wall-clock
    on ``net``.  A run that hit its deadline is returned,
    not raised: ``timed_out`` is set, the partial ``decisions`` are
    surfaced and :attr:`undecided_correct` names the stragglers.
    """

    config: SystemConfig
    decisions: dict[ProcessId, Decision]
    outputs: dict[ProcessId, list[Deliver]]
    stats: RunStats
    faulty: frozenset[ProcessId]
    end_time: float
    #: nothing was left in flight when the run stopped.
    drained: bool = True
    #: largest causal depth each process handled (engines that track it).
    depths: dict[ProcessId, int] = field(default_factory=dict)
    timed_out: bool = False

    @classmethod
    def from_books(cls, books: Engine, end_time: float, **fields: Any) -> "RunResult":
        """Close an :class:`Engine`'s books at ``end_time``."""
        books.stats.end_time = end_time
        return cls(
            config=books.config,
            decisions=dict(books.decisions),
            outputs=books.outputs,
            stats=books.stats,
            faulty=books.faulty,
            end_time=end_time,
            **fields,
        )

    @property
    def max_correct_step(self) -> int:
        """Largest decision step among correct processes."""
        return max((d.step for d in self.correct_decisions.values()), default=0)


class Engine(ExecutionPorts):
    """The books behind the ports, shared by every engine.

    Subclasses schedule: they implement the delivery loop, :meth:`now`,
    :meth:`_deliver_reply` and — in process — ``send`` (and usually an
    inlined ``broadcast``).  Everything that only *records* — the first
    decision of a process, a top-level upcall, a service call, a log
    record — is written here once, stamped with :meth:`now`, the same
    stream time the matching event carries.  The socket engine's hub 0
    (:class:`~repro.net.cluster.NetCluster`) calls these ports with what
    a node's ports wrote up its link.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        faulty,
        services: Mapping[str, Service] | None,
        event_sink: EventSink | None,
    ) -> None:
        self.faulty = check_deployment(config, protocols, faulty)
        self.config = config
        self.services = dict(services or {})
        self.stats = RunStats()
        self.decisions: dict[ProcessId, Decision] = {}
        self.outputs: dict[ProcessId, list[Deliver]] = {
            pid: [] for pid in config.processes
        }
        self.correct = [p for p in config.processes if p not in self.faulty]
        #: shrinks as correct processes decide, so "everyone decided" is a
        #: truth test per event, not an O(n) scan.
        self._undecided_correct = set(self.correct)
        #: ``None`` unless somebody is watching: one check on the hot path.
        self._events = event_sink
        #: the sink when it reads that per-message event, else ``None``:
        #: resolved once, so an engine builds a ``SendEvent``/``DeliverEvent``
        #: only for a sink that reads it.
        self._sends = reader(event_sink, SendEvent)
        self._delivers = reader(event_sink, DeliverEvent)

    def now(self) -> float:
        """Seconds on this engine's clock since the run started."""
        raise NotImplementedError

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        """Schedule one trusted-service reply as a delivery."""
        raise NotImplementedError

    # -- ExecutionPorts: the ports that only keep books -------------------------------

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        if pid not in self.decisions:
            now = self.now()
            decision = Decision(value, kind, step=depth, time=now)
            self.decisions[pid] = decision
            self.stats.record_decision(pid, decision)
            self._undecided_correct.discard(pid)
            if self._events is not None:
                self._events.emit(DecideEvent(now, pid, value, kind, depth))

    def output(self, pid: ProcessId, effect: Deliver, depth: int) -> None:
        self.outputs[pid].append(effect)
        if self._events is not None:
            self._events.emit(
                OutputEvent(self.now(), pid, effect.tag, effect.sender, effect.value)
            )

    def service_call(self, pid: ProcessId, call: ServiceCall, depth: int) -> None:
        now = self.now()
        if self._events is not None:
            self._events.emit(ServiceEvent(now, pid, call.service, call.payload))
        dispatch_service_call(self.services, pid, call, depth, now, self._deliver_reply)

    def log_record(self, pid: ProcessId, record: Log, depth: int) -> None:
        if self._events is not None:
            self._events.emit(LogEvent(self.now(), pid, record.event, record.data))

    def _result(self, **fields: Any) -> RunResult:
        return RunResult.from_books(self, self.now(), **fields)
