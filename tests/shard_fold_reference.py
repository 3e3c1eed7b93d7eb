"""The shard sink's slot fold as it stood before it streamed — the tests'
reference.

Until the fold streamed, :class:`~repro.shard.metrics.ShardStreamSink` kept
every replica's ``shard.open`` and ``shard.decide`` record for the whole run
(``opens``/``decides``, keyed by ``(pid, shard, slot)``) and rebuilt a
per-decision dict in :meth:`report`.  :class:`ReferenceStreamSink` is that
fold, kept test-only as the specification the streaming one is checked
against (``tests/test_shard_fold.py``): the same rows, key for key and value
for value.  Do not optimise it and do not import it from ``src/``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from repro.engine.events import LogEvent, RunEvent, ServiceEvent
from repro.shard.metrics import ShardStreamSink, step_of_kind
from repro.shard.router import hub_of
from repro.types import DecisionKind, RunStats, percentile


class ReferenceStreamSink(ShardStreamSink):
    """Every record kept to the end, folded once in :meth:`report`."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``(pid, shard, slot) -> open time`` from ``shard.open`` records.
        self.opens: dict[tuple[Any, int, int], float] = {}
        #: ``(pid, shard, slot) -> (decide time, kind)`` from ``shard.decide``.
        self.decides: dict[tuple[Any, int, int], tuple[float, DecisionKind]] = {}

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
    return math.fsum(values) / len(values) if values else 0.0
