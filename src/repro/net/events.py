"""Hub-side event emission: the socket engine on the shared event stream.

The orchestrator observes every frame that crosses the hub and translates
it into the same typed :mod:`repro.engine.events` vocabulary the other
four backends emit, so :class:`~repro.engine.events.EventStats`,
:class:`~repro.engine.events.EventLog` — and any metrics built on them —
work unchanged over real sockets.  Event ``time`` is wall-clock seconds
since the run started (the same convention as the asyncio backend).

One approximation is inherent to the topology: a ``DeliverEvent`` is
emitted when the hub hands the frame to the destination's socket, not when
the destination process dequeues it.  The gap is one socket hop; per-run
counters (the thing :class:`EventStats` computes) are exact either way.

What is built when: a ``SendEvent``/``DeliverEvent`` only for a sink that
reads it (:attr:`HubEvents.sends` / :attr:`HubEvents.delivers`, resolved
once from the sink's ``consumes``).  The data plane builds those two
itself, per routed copy; with no reader it builds none and does not read
the clock for them.  When it does, it stamps a frame, not a message: the
clock is read once per frame taken in and once per write made — the ``n``
sends of one broadcast were one frame and carry one time, as do the
deliveries coalesced into one write.

What decodes when: never on relay.  Binary-codec payloads reach the hub as
:class:`~repro.codec.Opaque` spans and go into the send/deliver events as
they are; a span decodes at most once per message, on the first
``event.payload`` read, and a sink that reads none costs the hub no decode.
"""

from __future__ import annotations

import time
from typing import Any

from ..engine.events import (
    DecideEvent,
    DeliverEvent,
    EventSink,
    FaultEvent,
    HubSaturatedEvent,
    LogEvent,
    OutputEvent,
    RestartEvent,
    SendEvent,
    ServiceEvent,
    reader,
)
from ..types import ProcessId


class StreamClock:
    """Wall-clock offsets since :meth:`start` (monotonic source)."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def start(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0


class HubEvents:
    """Emit typed run events for hub-observed traffic.

    A thin guard layer: every method is a no-op when no sink is attached,
    so the cluster keeps a single ``self.events.<kind>(...)`` call per
    observation and pays nothing when nobody is watching.  The per-message
    events have no method: the data plane builds them in its own loops, for
    :attr:`sends` / :attr:`delivers` — the sink when it reads that type,
    ``None`` otherwise.
    """

    __slots__ = ("sink", "clock", "sends", "delivers")

    def __init__(self, sink: EventSink | None, clock: StreamClock) -> None:
        self.sink = sink
        self.clock = clock
        self.sends = reader(sink, SendEvent)
        self.delivers = reader(sink, DeliverEvent)

    def decide(
        self, pid: ProcessId, value: Any, kind: Any, step: int, now: float
    ) -> None:
        """The decision the hub booked at stream time ``now``."""
        if self.sink is not None:
            self.sink.emit(DecideEvent(now, pid, value, kind, step))

    def output(self, pid: ProcessId, tag: str, sender: ProcessId, value: Any) -> None:
        if self.sink is not None:
            self.sink.emit(OutputEvent(self.clock.now(), pid, tag, sender, value))

    def service(self, pid: ProcessId, service: str, payload: Any) -> None:
        if self.sink is not None:
            self.sink.emit(ServiceEvent(self.clock.now(), pid, service, payload))

    def log(self, pid: ProcessId, event: str, data: dict[str, Any]) -> None:
        if self.sink is not None:
            self.sink.emit(LogEvent(self.clock.now(), pid, event, data))

    def fault(self, pid: ProcessId, fault: str, detail: str = "") -> None:
        if self.sink is not None:
            self.sink.emit(FaultEvent(self.clock.now(), pid, fault, detail))

    def restart(self, pid: ProcessId, detail: str = "") -> None:
        if self.sink is not None:
            self.sink.emit(RestartEvent(self.clock.now(), pid, detail))

    def saturated(self, hub: int, depth: int, high_water: int) -> None:
        """A hub's ready queue crossed its high-water mark (pid = hub index)."""
        if self.sink is not None:
            self.sink.emit(
                HubSaturatedEvent(self.clock.now(), hub, depth, high_water)
            )
