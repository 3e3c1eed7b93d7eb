"""Discrete-event queue primitives for the deterministic simulator.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, making every run a pure function of the seed and
the configuration — a prerequisite for reproducible experiments and for
shrinking failures found by property-based tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

from ..types import ProcessId


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence.

    Attributes:
        time: simulated delivery time.
        kind: ``"start"`` or ``"deliver"``.
        dst: receiving process.
        sender: originating process (``SERVICE_SENDER`` for services).
        payload: the message payload (``None`` for start events).
        depth: causal communication depth carried by the message — the
            paper's step metric.  A message sent by a process at depth ``d``
            arrives with ``depth = d + 1``.
    """

    time: float
    kind: str
    dst: ProcessId
    sender: ProcessId = -2
    payload: Any = None
    depth: int = 0


class EventQueue:
    """A deterministic priority queue of :class:`Event` values.

    Internally entries are plain tuples ordered by ``(time, seq)``; the
    tie-breaker ``seq`` is unique, so comparison never reaches the trailing
    fields.  Deliver events pushed through :meth:`push_deliver` are stored
    *flat* — most scheduled messages are never delivered (runs stop once
    every correct process decided), so materialising an :class:`Event` per
    push would waste the bulk of the allocations on the hottest loop of a
    run.  :meth:`pop` builds the :class:`Event` lazily; :meth:`pop_entry`
    exposes the raw tuple.  The simulator's delivery loop pops ``_heap``
    itself and adds what it popped to :attr:`popped` when it stops.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        self.pushed = 0
        self.popped = 0

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, next(self._counter), event))
        self.pushed += 1

    def push_deliver(
        self,
        time: float,
        dst: ProcessId,
        sender: ProcessId,
        payload: Any,
        depth: int,
    ) -> None:
        """Schedule a ``"deliver"`` event without materialising it."""
        heapq.heappush(
            self._heap, (time, next(self._counter), dst, sender, payload, depth)
        )
        self.pushed += 1

    def pop(self) -> Event:
        entry = heapq.heappop(self._heap)
        self.popped += 1
        if len(entry) == 3:
            return entry[2]
        time, _, dst, sender, payload, depth = entry
        return Event(time, "deliver", dst, sender, payload, depth)

    def pop_entry(self) -> tuple:
        """Pop the raw heap entry: ``(time, seq, Event)`` for events pushed
        whole, ``(time, seq, dst, sender, payload, depth)`` for flat
        delivers."""
        self.popped += 1
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
