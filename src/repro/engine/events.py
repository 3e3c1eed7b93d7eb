"""Structured run events — the cross-engine observability layer.

Every backend emits the same typed events (message sent, message
delivered, decision, service call, fault activation, …) into an
:class:`EventSink`.  An :class:`EventLog` is *the* trace of a run — pass
one as ``event_sink`` on any engine — metrics can be computed online by
:class:`EventStats`, and the model checker's counterexample replays record
an :class:`EventLog` too.

Events are frozen slotted dataclasses, so a recorded stream is hashable,
comparable and cheap; ``time`` is whatever clock the backend runs
(virtual simulated time, wall-clock offsets on net, delivery index in
the model checker, round number in lockstep mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..codec.binary import Opaque
from ..types import DecisionKind, ProcessId, slot_init

__all__ = [
    "RunEvent",
    "SendEvent",
    "DeliverEvent",
    "DecideEvent",
    "OutputEvent",
    "ServiceEvent",
    "FaultEvent",
    "HubSaturatedEvent",
    "LogEvent",
    "RestartEvent",
    "RoundEvent",
    "EventSink",
    "EventLog",
    "TeeSink",
    "EventStats",
    "combine",
    "reader",
]


@dataclass(frozen=True, slots=True)
class RunEvent:
    """Base class: something observable happened at ``time`` on ``pid``."""

    time: float
    pid: ProcessId


class _MessageEvent(RunEvent):
    """What :class:`SendEvent` and :class:`DeliverEvent` share: a payload
    that may still be encoded.

    ``raw`` is the payload as the engine handed it over — the object itself
    on the in-memory engines, an un-decoded :class:`~repro.codec.Opaque`
    span on the socket hub, which relays payloads without looking inside.
    ``payload`` is the object either way: a span decodes on first read and
    memoizes on the span, so the send and deliver events of one message
    share one decoded object and a sink that never reads a payload costs
    the hub no decode at all.  Equality, hash, repr and pickling all go
    through ``payload``: an event built from a span is indistinguishable
    from one built from the object.
    """

    __slots__ = ()

    @property
    def payload(self) -> Any:
        raw = self.raw
        return raw.decode() if type(raw) is Opaque else raw

    def _values(self) -> tuple:
        """Constructor arguments in order, the payload materialized."""
        return tuple(
            self.payload if name == "raw" else getattr(self, name)
            for name in self.__match_args__
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = ("payload" if n == "raw" else n for n in self.__match_args__)
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


# The two per-message events are built once per routed copy — 882 a slot
# at n=7 — so their constructors set each slot through its member
# descriptor (:func:`~repro.types.slot_init`).  Everything else about them
# is the dataclass's: still frozen, same fields, same ``__match_args__``.


@slot_init
@dataclass(frozen=True, init=False, eq=False, repr=False)
class SendEvent(_MessageEvent):
    """``pid`` shipped a message to ``dst`` (once per destination).
    Constructed ``SendEvent(time, pid, dst, payload, depth)``."""

    __slots__ = ("dst", "raw", "depth")
    dst: ProcessId
    raw: Any
    depth: int


@slot_init
@dataclass(frozen=True, init=False, eq=False, repr=False)
class DeliverEvent(_MessageEvent):
    """``pid`` received (and handled) a message from ``sender``.
    Constructed ``DeliverEvent(time, pid, sender, payload, depth)``."""

    __slots__ = ("sender", "raw", "depth")
    sender: ProcessId
    raw: Any
    depth: int


@dataclass(frozen=True, slots=True)
class DecideEvent(RunEvent):
    """``pid`` decided ``value`` at causal ``step`` (first decision only)."""

    value: Any
    kind: DecisionKind
    step: int


@dataclass(frozen=True, slots=True)
class OutputEvent(RunEvent):
    """A top-level protocol upcall (e.g. a standalone IDB delivery)."""

    tag: str
    sender: ProcessId
    value: Any


@dataclass(frozen=True, slots=True)
class ServiceEvent(RunEvent):
    """``pid`` invoked trusted service ``service``."""

    service: str
    payload: Any


@dataclass(frozen=True, slots=True)
class FaultEvent(RunEvent):
    """A configured fault became active on ``pid``."""

    fault: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class LogEvent(RunEvent):
    """A protocol-level :class:`~repro.runtime.effects.Log` record."""

    event: str
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class RestartEvent(RunEvent):
    """``pid`` came back from a crash-recovery restart (``node.restart``):
    the process is live again with a freshly built protocol instance and
    is about to replay and rejoin."""

    detail: str = ""


@dataclass(frozen=True, slots=True)
class RoundEvent(RunEvent):
    """The lockstep/synchronous engines advanced to ``round`` (pid is -1)."""

    round: int


@dataclass(frozen=True, slots=True)
class HubSaturatedEvent(RunEvent):
    """A transport hub's ready-queue depth crossed its high-water mark.

    ``pid`` is the *hub index* (hub 0 is the star/orchestrator hub; a mesh
    run has one per hub group), not a process id.  Emitted once per
    crossing — the hub latches and only re-arms after its queue drains
    below half the mark — so the stream records saturation *episodes*,
    not per-frame noise.  This is the observability behind the parallel-
    hub work: it says which hub, if any, is the bottleneck.
    """

    depth: int
    high_water: int


class EventSink:
    """Receives run events; the base class swallows everything.

    Backends call :meth:`emit` once per event.  Implement :meth:`emit` for
    a catch-all sink, or rely on a dispatching subclass.

    ``consumes`` declares, on the class, the event types the sink reads;
    ``None`` means every type.  A declaration is a promise that :meth:`emit`
    ignores every other type, and it is what lets the stream skip work: an
    engine builds ``SendEvent``/``DeliverEvent`` only when its sink reads
    them (:func:`reader`), and a :class:`TeeSink` hands each type only to
    the sinks that read it.
    """

    consumes: frozenset[type] | None = None

    def emit(self, event: RunEvent) -> None:  # pragma: no cover - interface
        pass


def reader(sink: EventSink | None, kind: type) -> EventSink | None:
    """What reads events of type ``kind`` from ``sink``, else ``None`` —
    what an engine resolves once so that it never builds an event nobody
    reads.  A sink without a declaration reads everything.  A
    :class:`TeeSink` is narrowed to its readers of ``kind``: the one
    reading sink itself, or a tee of exactly those, in order — so an event
    with one reader costs no hop through the tee."""
    if sink is None:
        return None
    if type(sink) is TeeSink:
        readers = [r for s in sink.sinks if (r := reader(s, kind)) is not None]
        if not readers:
            return None
        return readers[0] if len(readers) == 1 else TeeSink(*readers)
    declared = getattr(sink, "consumes", None)
    if declared is None or any(issubclass(kind, read) for read in declared):
        return sink
    return None


class EventLog(EventSink):
    """Record every event in order (list access via ``.events``)."""

    def __init__(self) -> None:
        self.events: list[RunEvent] = []

    def emit(self, event: RunEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_type(self, kind: type) -> list[RunEvent]:
        """The recorded events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, kind)]

    def decisions(self) -> dict[ProcessId, DecideEvent]:
        """First decision per process."""
        out: dict[ProcessId, DecideEvent] = {}
        for e in self.events:
            if isinstance(e, DecideEvent) and e.pid not in out:
                out[e.pid] = e
        return out

    def format(self, limit: int | None = None) -> str:
        """Human-readable rendering, one line per event (the first
        ``limit`` of them): time, process, event type, then its fields."""
        lines = []
        for e in self.events[:limit]:
            names = ("payload" if n == "raw" else n for n in e.__match_args__[2:])
            detail = " ".join(f"{n}={getattr(e, n)!r}" for n in names)
            lines.append(f"[t={e.time:8.3f}] p{e.pid:<3} {type(e).__name__:<14} {detail}")
        return "\n".join(lines)


class TeeSink(EventSink):
    """Fan one event stream out to several sinks: each event goes, in sink
    order, to the sinks that read its type.  The tee reads the union of
    what its sinks read."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = tuple(s for s in sinks if s is not None)
        declared = [getattr(sink, "consumes", None) for sink in self.sinks]
        self.consumes = (
            None
            if any(d is None for d in declared)
            else frozenset().union(*declared)
        )
        #: event type -> the bound ``emit``s of the sinks reading it, resolved
        #: on the type's first event.
        self._routes: dict[type, tuple] = {}

    def emit(self, event: RunEvent) -> None:
        kind = type(event)
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = tuple(
                r.emit for sink in self.sinks if (r := reader(sink, kind)) is not None
            )
        for emit in route:
            emit(event)


class EventStats(EventSink):
    """Online per-run counters computed from the event stream alone —
    usable identically on every backend (see
    :mod:`repro.metrics.collectors`)."""

    def __init__(self) -> None:
        self.sends = 0
        self.delivers = 0
        self.service_calls = 0
        self.fault_activations = 0
        self.restarts = 0
        self.decide_steps: dict[ProcessId, int] = {}
        self.decide_kinds: dict[Any, int] = {}
        self.decide_times: dict[ProcessId, float] = {}

    def emit(self, event: RunEvent) -> None:
        if isinstance(event, SendEvent):
            self.sends += 1
        elif isinstance(event, DeliverEvent):
            self.delivers += 1
        elif isinstance(event, ServiceEvent):
            self.service_calls += 1
        elif isinstance(event, FaultEvent):
            self.fault_activations += 1
        elif isinstance(event, RestartEvent):
            self.restarts += 1
        elif isinstance(event, DecideEvent):
            if event.pid not in self.decide_steps:
                self.decide_steps[event.pid] = event.step
                self.decide_times[event.pid] = event.time
                self.decide_kinds[event.kind] = self.decide_kinds.get(event.kind, 0) + 1

    @property
    def one_step_fraction(self) -> float:
        """Fraction of deciders that decided in one communication step."""
        if not self.decide_steps:
            return 0.0
        fast = sum(1 for s in self.decide_steps.values() if s <= 1)
        return fast / len(self.decide_steps)


def combine(*sinks: EventSink | None) -> EventSink | None:
    """Collapse optional sinks: ``None`` if none given, the sink itself if
    exactly one, a :class:`TeeSink` otherwise.  Backends keep a single
    ``sink is not None`` check on their hot path."""
    real = [s for s in sinks if s is not None]
    if not real:
        return None
    if len(real) == 1:
        return real[0]
    return TeeSink(*real)
