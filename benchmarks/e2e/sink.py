"""The benchmark's event sinks.

:class:`LeanSink` is the only sink attached while a trial is timed.  A full
``EventLog`` costs a quarter of the throughput and hundreds of megabytes
that every forked node then inherits, so this one keeps numbers only:
slot-commit latencies, decision-kind counts and recovery timestamps.  It
never stores an event or a payload (``test_contract.py`` checks that).

:class:`PayloadSampler` is the opposite on purpose: it keeps the first few
delivered payloads so the codec probe can time real frames, and attributes
every send hub 0 sees to its owning hub.  It is attached only to the
discarded warm-up trial of a traced run.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.events import (
    DeliverEvent,
    EventSink,
    HubSaturatedEvent,
    LogEvent,
    RestartEvent,
    RunEvent,
    SendEvent,
)
from repro.mesh.topology import UNATTRIBUTED, shard_of_payload
from repro.shard.router import hub_of

#: delivered payloads the sampler keeps for the codec probe.
SAMPLE_LIMIT = 512


class LeanSink(EventSink):
    """Numbers only: no event, payload or command survives :meth:`emit`."""

    def __init__(self) -> None:
        #: ``(pid, shard, slot) -> open time`` of slots not yet decided.
        self._opens: dict[tuple[int, int, int], float] = {}
        #: one ``shard.decide - shard.open`` sample per replica per slot.
        self.slot_latencies: list[float] = []
        #: decision kind (``one-step`` / ``two-step`` / ``underlying``) -> slots.
        self.kinds: Counter[str] = Counter()
        self.first_open: float | None = None
        self._restarted_at: dict[int, float] = {}
        #: ``RestartEvent -> recovery.caught_up`` per recovered replica.
        self.recover_seconds: list[float] = []
        self.replayed_slots = 0
        self.catchup_slots = 0
        #: ``HubSaturatedEvent`` episodes, any hub.
        self.saturated_events = 0

    def emit(self, event: RunEvent) -> None:
        kind = type(event)
        if kind is not LogEvent:  # the hot path: every send and deliver
            if kind is RestartEvent:
                self._restarted_at[event.pid] = event.time
            elif kind is HubSaturatedEvent:
                self.saturated_events += 1
            return
        name = event.event
        if name == "shard.open":
            data = event.data
            self._opens[(event.pid, data["shard"], data["slot"])] = event.time
            if self.first_open is None:
                self.first_open = event.time
        elif name == "shard.decide":
            data = event.data
            opened = self._opens.pop((event.pid, data["shard"], data["slot"]), None)
            if opened is not None:
                self.slot_latencies.append(event.time - opened)
            self.kinds[data["kind"]] += 1
        elif name == "recovery.replayed":
            self.replayed_slots += sum(event.data["slots"].values())
        elif name == "recovery.slot":
            self.catchup_slots += 1
        elif name == "recovery.caught_up":
            restarted = self._restarted_at.pop(event.pid, None)
            if restarted is not None:
                self.recover_seconds.append(event.time - restarted)


class PayloadSampler(EventSink):
    """Keeps the first :data:`SAMPLE_LIMIT` delivered ``(sender, payload,
    depth)`` and counts the sends that reached hub 0 although another hub
    owns their shard (hub 0 relays those; data hubs emit no events, so what
    they relay is not visible from outside)."""

    def __init__(self, shards: int, hubs: int) -> None:
        self.shards, self.hubs = shards, hubs
        self.entries: list[tuple[int, object, int]] = []
        self.relayed = 0

    def emit(self, event: RunEvent) -> None:
        kind = type(event)
        if kind is DeliverEvent:
            if len(self.entries) < SAMPLE_LIMIT:
                self.entries.append((event.sender, event.payload, event.depth))
        elif kind is SendEvent and self.hubs > 1:
            shard = shard_of_payload(event.payload, self.shards)
            if shard != UNATTRIBUTED and hub_of(shard, self.hubs) != 0:
                self.relayed += 1
