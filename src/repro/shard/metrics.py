"""Per-shard and aggregate metrics folded from the typed event stream.

The sharded service never inspects engine internals: everything here is
computed from the cross-engine event stream (:mod:`repro.engine.events`),
so the same collector works whether the replicas are simulator callbacks
or forked OS processes behind the socket hub.

Attribution works through the message envelopes themselves: every frame a
consensus instance sends travels inside an ``Envelope`` chain ending in an
instance component ``s<shard>.<slot>`` (see :mod:`repro.shard.router`), so
sends and delivers can be charged to their shard from the envelope header
(:func:`~repro.shard.router.shard_of_payload`, off the raw bytes when the
socket hub hands over an un-decoded span) — no side channel needed.  Slot
timing comes from the ``shard.open`` / ``shard.decide`` log records each
replica emits: their time delta is the *per-slot* decision latency, which
sidesteps the fact that causal ``step`` depth accumulates across chained
slots (slot 17's decision rides on the message chain of slots 0..16, so
its raw ``DecideEvent.step`` is useless).
Per-slot step counts are instead derived from the decision *kind*:
one-step/fast = 1, two-step = 2, underlying = 2 + the UC's step cost.

Everything folds into :class:`~repro.metrics.collectors.StreamAggregate`
instances — one per shard plus one aggregate — whose summaries feed
experiment E19 (``benchmarks/test_e19_shard.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..engine.events import (
    DeliverEvent,
    EventSink,
    EventStats,
    LogEvent,
    RunEvent,
    SendEvent,
    ServiceEvent,
)
from ..metrics.collectors import StreamAggregate
from ..types import DecisionKind
from .router import UNATTRIBUTED, hub_of, shard_of_payload

__all__ = ["step_of_kind", "ShardStreamSink"]


def step_of_kind(kind: DecisionKind, uc_step_cost: int = 2) -> int:
    """Communication steps one slot's decision took, by decision kind.

    The causal ``step`` depth on a :class:`~repro.engine.events.DecideEvent`
    accumulates across chained slots, so per-slot accounting derives the
    step count from the kind instead: the expedited paths decide in one
    step, the plain two-step path in two, and falling back to the
    underlying consensus costs the two dissemination steps plus the UC.
    """
    if kind in (DecisionKind.ONE_STEP, DecisionKind.FAST):
        return 1
    if kind is DecisionKind.TWO_STEP:
        return 2
    return 2 + uc_step_cost


class ShardStreamSink(EventSink):
    """Folds a sharded run's event stream into per-shard aggregates.

    Attach as (part of) the run's event sink; afterwards :meth:`fold`
    yields one :class:`~repro.metrics.collectors.StreamAggregate` per
    shard plus the aggregate, each instance ``(shard, slot)`` counted as
    one "run" of that shard's log.
    """

    def __init__(self, shards: int, uc_step_cost: int = 2, hubs: int = 1) -> None:
        self.shards = shards
        self.uc_step_cost = uc_step_cost
        #: hub groups of the transport (mesh runs); per-shard rows carry
        #: the owning hub and the summary a per-hub rollup, so a report
        #: shows how the load *should* split across hubs.
        self.hubs = hubs
        self.sends: Counter = Counter()
        self.delivers: Counter = Counter()
        self.service_calls: Counter = Counter()
        #: ``(pid, shard, slot) -> open time`` from ``shard.open`` records.
        self.opens: dict[tuple[Any, int, int], float] = {}
        #: ``(pid, shard, slot) -> (decide time, kind)`` from ``shard.decide``.
        self.decides: dict[tuple[Any, int, int], tuple[float, DecisionKind]] = {}

    # -- attribution -------------------------------------------------------------------

    def _shard_of_service(self, payload: Any) -> int:
        instance = getattr(payload, "instance", None)
        if (
            isinstance(instance, tuple)
            and len(instance) == 2
            and isinstance(instance[0], int)
            and 0 <= instance[0] < self.shards
        ):
            return instance[0]
        return UNATTRIBUTED

    # -- sink --------------------------------------------------------------------------

    def emit(self, event: RunEvent) -> None:
        kind = type(event)  # the event classes are final: exact-type dispatch
        if kind is SendEvent:
            self.sends[shard_of_payload(event.raw, self.shards)] += 1
        elif kind is DeliverEvent:
            self.delivers[shard_of_payload(event.raw, self.shards)] += 1
        elif kind is ServiceEvent:
            self.service_calls[self._shard_of_service(event.payload)] += 1
        elif kind is LogEvent and event.event in ("shard.open", "shard.decide"):
            data = event.data
            key = (event.pid, int(data["shard"]), int(data["slot"]))
            if event.event == "shard.open":
                self.opens.setdefault(key, event.time)
            else:
                self.decides.setdefault(
                    key, (event.time, DecisionKind(data["kind"]))
                )

    # -- folding -----------------------------------------------------------------------

    def fold(self) -> tuple[dict[int, StreamAggregate], StreamAggregate]:
        """Fold the stream: ``(per-shard aggregates, overall aggregate)``.

        Each decided instance contributes one synthetic
        :class:`~repro.engine.events.EventStats` — per replica a per-slot
        step count (:func:`step_of_kind`) and a per-slot latency (decide
        time minus that replica's open time) — folded into its shard's
        aggregate and the overall one.  Message counters are then assigned
        from the envelope attribution.
        """
        per_shard = {s: StreamAggregate(label=f"shard{s}") for s in range(self.shards)}
        overall = StreamAggregate(label="aggregate")
        instances: dict[tuple[int, int], dict[Any, tuple[float, DecisionKind]]] = {}
        for (pid, shard, slot), outcome in self.decides.items():
            instances.setdefault((shard, slot), {})[pid] = outcome
        for (shard, slot), outcomes in sorted(instances.items()):
            stats = EventStats()
            for pid, (decided_at, kind) in outcomes.items():
                opened_at = self.opens.get((pid, shard, slot))
                stats.decide_steps[pid] = step_of_kind(kind, self.uc_step_cost)
                stats.decide_times[pid] = (
                    decided_at - opened_at if opened_at is not None else decided_at
                )
                stats.decide_kinds[kind] = stats.decide_kinds.get(kind, 0) + 1
            per_shard[shard].add_stats(stats)
            overall.add_stats(stats)
        for shard in range(self.shards):
            per_shard[shard].sends = self.sends.get(shard, 0)
            per_shard[shard].delivers = self.delivers.get(shard, 0)
            per_shard[shard].service_calls = self.service_calls.get(shard, 0)
        overall.sends = sum(self.sends.values())
        overall.delivers = sum(self.delivers.values())
        overall.service_calls = sum(self.service_calls.values())
        return per_shard, overall

    def report(
        self,
        commands_by_shard: dict[int, int] | None = None,
        duration: float | None = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Summary rows: one dict per shard plus the aggregate dict.

        Args:
            commands_by_shard: applied-command counts (from the agreed
                digest); enables commands-per-duration throughput.
            duration: the run's duration in engine time units (virtual on
                the simulator, wall seconds on asyncio/net).
        """
        per_shard, overall = self.fold()
        rows: list[dict[str, Any]] = []
        total_commands = 0
        for shard in range(self.shards):
            aggregate = per_shard[shard]
            commands = (commands_by_shard or {}).get(shard, 0)
            total_commands += commands
            row = {
                "shard": shard,
                "hub": hub_of(shard, self.hubs),
                "slots": aggregate.runs,
                "commands": commands,
                "throughput_cmds": (
                    round(commands / duration, 3) if duration else 0.0
                ),
                **aggregate.summary(),
            }
            rows.append(row)
        per_hub: dict[int, dict[str, int]] = {
            hub: {"shards": 0, "commands": 0, "slots": 0}
            for hub in range(self.hubs)
        }
        for row in rows:
            bucket = per_hub[row["hub"]]
            bucket["shards"] += 1
            bucket["commands"] += row["commands"]
            bucket["slots"] += row["slots"]
        summary = {
            "shards": self.shards,
            "hubs": self.hubs,
            "slots": overall.runs,
            "commands": total_commands,
            "throughput_cmds": (
                round(total_commands / duration, 3) if duration else 0.0
            ),
            "duration": round(duration, 6) if duration else 0.0,
            "per_hub": {str(hub): counts for hub, counts in per_hub.items()},
            **overall.summary(),
        }
        return rows, summary
