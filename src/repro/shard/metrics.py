"""Per-shard and aggregate metrics folded from the typed event stream.

The sharded service never inspects engine internals: everything here is
computed from the cross-engine event stream (:mod:`repro.engine.events`),
so the same collector works whether the replicas are simulator callbacks
or forked OS processes behind the socket hub.

The sink folds slots, not messages: it reads only ``LogEvent`` and
``ServiceEvent`` (its ``consumes``), so an engine whose only sink it is
builds no per-message event at all.  A run's message totals are the
engine's own counters (``RunResult.stats``), which
:class:`~repro.shard.service.ShardedService` puts into the aggregate row;
per-shard rows carry no message counts.  Slot
timing comes from the ``shard.open`` / ``shard.decide`` log records each
replica emits: their time delta is the *per-slot* decision latency, which
sidesteps the fact that causal ``step`` depth accumulates across chained
slots (slot 17's decision rides on the message chain of slots 0..16, so
its raw ``DecideEvent.step`` is useless).
Per-slot step counts are instead derived from the decision *kind*:
one-step/fast = 1, two-step = 2, underlying = the algorithm's steps before
its UC (``AlgorithmSpec.steps_before_uc``: DEX 2, BOSCO 1, two-step 0) +
the UC's step cost.

Everything folds into :class:`~repro.metrics.collectors.StreamAggregate`
instances — one per shard plus one aggregate — whose summaries feed
experiment E19 (``benchmarks/test_e19_shard.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..engine.events import EventSink, EventStats, LogEvent, RunEvent, ServiceEvent
from ..metrics.collectors import StreamAggregate
from ..types import DecisionKind, RunStats
from .router import UNATTRIBUTED, hub_of

__all__ = ["step_of_kind", "ShardStreamSink"]

#: the summary keys a slot fold cannot fill: message counts are the
#: engine's (``RunStats``), not this sink's.
_MESSAGE_KEYS = ("sends", "delivers", "throughput_msgs_per_s")


def step_of_kind(
    kind: DecisionKind, uc_step_cost: int = 2, steps_before_uc: int = 2
) -> int:
    """Communication steps one slot's decision took, by decision kind.

    The causal ``step`` depth on a :class:`~repro.engine.events.DecideEvent`
    accumulates across chained slots, so per-slot accounting derives the
    step count from the kind instead: the expedited paths decide in one
    step, the plain two-step path in two, and falling back to the
    underlying consensus costs the algorithm's dissemination steps before
    the UC (``steps_before_uc``; DEX's two by default) plus the UC.
    """
    if kind in (DecisionKind.ONE_STEP, DecisionKind.FAST):
        return 1
    if kind is DecisionKind.TWO_STEP:
        return 2
    return steps_before_uc + uc_step_cost


class ShardStreamSink(EventSink):
    """Folds a sharded run's event stream into per-shard aggregates.

    Attach as (part of) the run's event sink; afterwards :meth:`fold`
    yields one :class:`~repro.metrics.collectors.StreamAggregate` per
    shard plus the aggregate, each instance ``(shard, slot)`` counted as
    one "run" of that shard's log.
    """

    consumes = frozenset({LogEvent, ServiceEvent})

    def __init__(
        self, shards: int, uc_step_cost: int = 2, hubs: int = 1, steps_before_uc: int = 2
    ) -> None:
        self.shards = shards
        self.uc_step_cost = uc_step_cost
        #: the deployed algorithm's steps before its UC (:func:`step_of_kind`)
        self.steps_before_uc = steps_before_uc
        #: hub groups of the transport (mesh runs); per-shard rows carry
        #: the owning hub and the summary a per-hub rollup, so a report
        #: shows how the load *should* split across hubs.
        self.hubs = hubs
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
        if kind is ServiceEvent:
            self.service_calls[self._shard_of_service(event.payload)] += 1
        elif kind is LogEvent and event.event in ("shard.open", "shard.decide"):
            # A replica's record is data: one naming no slot of this run, or
            # no decision kind, is skipped like an unattributable call.
            data = event.data
            if type(data) is not dict:
                return
            shard, slot = data.get("shard"), data.get("slot")
            if type(shard) is not int or not 0 <= shard < self.shards or type(slot) is not int:
                return
            key = (event.pid, shard, slot)
            if event.event == "shard.open":
                self.opens.setdefault(key, event.time)
                return
            try:
                decided = DecisionKind(data.get("kind"))
            except ValueError:
                return
            self.decides.setdefault(key, (event.time, decided))

    # -- folding -----------------------------------------------------------------------

    def fold(self) -> tuple[dict[int, StreamAggregate], StreamAggregate]:
        """Fold the stream: ``(per-shard aggregates, overall aggregate)``.

        Each decided instance contributes one synthetic
        :class:`~repro.engine.events.EventStats` — per replica a per-slot
        step count (:func:`step_of_kind`) and a per-slot latency (decide
        time minus that replica's open time) — folded into its shard's
        aggregate and the overall one, next to the shard's service calls.
        Message counters stay 0: this sink reads no message events.
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
                stats.decide_steps[pid] = step_of_kind(
                    kind, self.uc_step_cost, self.steps_before_uc
                )
                stats.decide_times[pid] = (
                    decided_at - opened_at if opened_at is not None else decided_at
                )
                stats.decide_kinds[kind] = stats.decide_kinds.get(kind, 0) + 1
            per_shard[shard].add_stats(stats)
            overall.add_stats(stats)
        for shard in range(self.shards):
            per_shard[shard].service_calls = self.service_calls.get(shard, 0)
        overall.service_calls = sum(self.service_calls.values())
        return per_shard, overall

    def report(
        self,
        commands_by_shard: dict[int, int] | None = None,
        duration: float | None = None,
        stats: RunStats | None = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Summary rows: one dict per shard plus the aggregate dict.

        Message counts (``sends``, ``delivers``, ``throughput_msgs_per_s``)
        appear in the aggregate only, and only when ``stats`` is given:
        the key is missing, never a made-up 0.

        Args:
            commands_by_shard: applied-command counts (from the agreed
                digest); enables commands-per-duration throughput.
            duration: the run's duration in engine time units (virtual on
                the simulator, wall seconds on net).
            stats: the run's own counters (``RunResult.stats``) — every
                message the engine routed, on a mesh the data hubs' too.
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
                **_slot_summary(aggregate),
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
        if stats is None:
            for key in _MESSAGE_KEYS:
                del summary[key]
        else:
            summary["sends"] = stats.messages_sent
            summary["delivers"] = stats.messages_delivered
            summary["throughput_msgs_per_s"] = (
                round(stats.messages_delivered / duration, 1) if duration else 0.0
            )
        return rows, summary


def _slot_summary(aggregate: StreamAggregate) -> dict[str, Any]:
    """One shard's summary without the message counts a slot fold lacks."""
    summary = aggregate.summary()
    for key in _MESSAGE_KEYS:
        del summary[key]
    return summary
