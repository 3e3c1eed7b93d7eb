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

:meth:`ShardStreamSink.report` folds each decided ``(shard, slot)`` into
its shard's row and the aggregate — the rows experiment E19
(``benchmarks/test_e19_shard.py``) prints.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from ..engine.events import EventSink, LogEvent, RunEvent, ServiceEvent
from ..types import DecisionKind, RunStats, percentile
from .router import UNATTRIBUTED, hub_of

__all__ = ["step_of_kind", "ShardStreamSink"]


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
    """Folds a sharded run's event stream into per-shard summary rows.

    Attach as (part of) the run's event sink; afterwards :meth:`report`
    yields one row per shard plus the aggregate.
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

    def report(
        self,
        commands_by_shard: dict[int, int] | None = None,
        duration: float | None = None,
        stats: RunStats | None = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Summary rows: one dict per shard plus the aggregate dict.

        Each decided ``(shard, slot)`` counts as one "run" of its shard's
        log and contributes, per replica that decided it, a step count
        (:func:`step_of_kind`) and a latency (decide time minus that
        replica's open time).  A shard (or run) with no decided slot has
        no latency: its percentiles are ``None``, never a made-up 0.
        Message counts (``sends``, ``delivers``, ``throughput_msgs_per_s``)
        appear in the aggregate only, and only when ``stats`` is given.

        Args:
            commands_by_shard: applied-command counts (from the agreed
                digest); enables commands-per-duration throughput.
            duration: the run's duration in engine time units (virtual on
                the simulator, wall seconds on net).
            stats: the run's own counters (``RunResult.stats``) — every
                message the engine routed, on a mesh the data hubs' too.
        """
        instances: dict[tuple[int, int], list[tuple[int, float, DecisionKind]]] = {}
        for (pid, shard, slot), (decided_at, kind) in self.decides.items():
            instances.setdefault((shard, slot), []).append((
                step_of_kind(kind, self.uc_step_cost, self.steps_before_uc),
                decided_at - self.opens.get((pid, shard, slot), 0.0),
                kind,
            ))
        by_shard: list[list] = [[] for _ in range(self.shards)]
        for (shard, _), decisions in instances.items():
            by_shard[shard].append(decisions)
        commands_by_shard = commands_by_shard or {}
        per_hub = {hub: {"shards": 0, "commands": 0, "slots": 0} for hub in range(self.hubs)}
        rows: list[dict[str, Any]] = []
        for shard, slots in enumerate(by_shard):
            hub, commands = hub_of(shard, self.hubs), commands_by_shard.get(shard, 0)
            rows.append({
                "shard": shard,
                "hub": hub,
                "slots": len(slots),
                "commands": commands,
                "throughput_cmds": round(commands / duration, 3) if duration else 0.0,
                **_slot_summary(slots, self.service_calls.get(shard, 0)),
            })
            bucket = per_hub[hub]
            bucket["shards"] += 1
            bucket["commands"] += commands
            bucket["slots"] += len(slots)
        total_commands = sum(commands_by_shard.get(shard, 0) for shard in range(self.shards))
        summary = {
            "shards": self.shards,
            "hubs": self.hubs,
            "slots": len(instances),
            "commands": total_commands,
            "throughput_cmds": round(total_commands / duration, 3) if duration else 0.0,
            "duration": round(duration, 6) if duration else 0.0,
            "per_hub": {str(hub): counts for hub, counts in per_hub.items()},
            **_slot_summary(list(instances.values()), sum(self.service_calls.values())),
        }
        if stats is not None:
            summary["sends"] = stats.messages_sent
            summary["delivers"] = stats.messages_delivered
            summary["throughput_msgs_per_s"] = (
                round(stats.messages_delivered / duration, 1) if duration else 0.0
            )
        return rows, summary


def _slot_summary(
    slots: list[list[tuple[int, float, DecisionKind]]], service_calls: int
) -> dict[str, Any]:
    """The summary keys of a set of decided slots, each slot its replicas'
    ``(step count, latency, kind)`` decisions."""
    decisions = [decision for slot in slots for decision in slot]
    steps = [step for step, _, _ in decisions]
    latencies = [latency for _, latency, _ in decisions]
    kinds = Counter(kind for _, _, kind in decisions)

    def share(count: int) -> float:
        return round(count / len(decisions), 3) if decisions else 0.0

    def latency(q: float) -> float | None:
        value = percentile(latencies, q)
        return None if value is None else round(value, 6)

    return {
        "runs": len(slots),
        "service_calls": service_calls,
        "mean_step": round(_mean(steps), 3),
        "mean_max_step": round(_mean([max(step for step, _, _ in slot) for slot in slots]), 3),
        "one_step_frac": share(sum(step <= 1 for step in steps)),
        "two_step_frac": share(kinds[DecisionKind.TWO_STEP]),
        "underlying_frac": share(kinds[DecisionKind.UNDERLYING]),
        # A slot fold has no run clock and no deadline of its own.
        "mean_wall_seconds": 0.0,
        "p50_decision_latency_s": latency(0.50),
        "p99_decision_latency_s": latency(0.99),
        "timeouts": 0,
    }


def _mean(values: list) -> float:
    """``statistics.fmean``, without loading ``statistics``: 0.0 when empty."""
    return math.fsum(values) / len(values) if values else 0.0
