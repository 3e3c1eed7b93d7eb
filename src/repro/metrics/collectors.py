"""Aggregation of run results into experiment statistics.

One :class:`RunAggregate` summarises a batch of
:class:`~repro.engine.run.RunResult` values — decision-step distribution,
decision-kind mix, message and latency statistics — which the report layer
renders and the benchmarks assert on.

:class:`StreamAggregate` is the event-stream-native counterpart: it folds
per-run :class:`~repro.engine.events.EventStats` counters instead of
retaining ``RunResult`` objects, so aggregation works on any engine that
emits the structured event stream — including the socket engine, whose
streaming bench never materialises results it doesn't need.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from ..engine.events import EventStats
from ..engine.run import RunResult
from ..types import DecisionKind


@dataclass
class RunAggregate:
    """Accumulated statistics over a batch of runs.

    Per-run quantities are taken over **correct processes only** (the
    paper's properties quantify over correct processes).  ``max_step`` is
    the slowest correct decider of a run — the latency the application
    observes when it waits for system-wide agreement — and ``steps`` pools
    every individual correct decision.
    """

    label: str = ""
    runs: int = 0
    steps: list[int] = field(default_factory=list)
    max_steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    messages: list[int] = field(default_factory=list)
    agreement_violations: int = 0
    unanimity_violations: int = 0
    #: runs that ended with some correct process undecided (termination
    #: failed within the run; agreement is vacuous on those).
    undecided_runs: int = 0

    def add(self, result: RunResult, expected_value=None) -> None:
        """Fold one run in.

        Args:
            result: a finished run.
            expected_value: when set, a decision differing from it counts
                as a unanimity violation (use for unanimous inputs).
        """
        self.runs += 1
        decisions = result.correct_decisions
        self.steps.extend(d.step for d in decisions.values())
        self.max_steps.append(result.max_correct_step)
        self.times.append(result.end_time)
        self.kinds.update(d.kind for d in decisions.values())
        self.messages.append(result.stats.messages_sent)
        if not result.agreement_holds():
            self.agreement_violations += 1
        if not result.all_correct_decided():
            self.undecided_runs += 1
        if expected_value is not None and any(
            d.value != expected_value for d in decisions.values()
        ):
            self.unanimity_violations += 1

    # -- derived statistics -----------------------------------------------------------

    @property
    def mean_step(self) -> float:
        """Mean decision step over all correct decisions."""
        return statistics.fmean(self.steps) if self.steps else 0.0

    @property
    def mean_max_step(self) -> float:
        """Mean per-run slowest correct decision step."""
        return statistics.fmean(self.max_steps) if self.max_steps else 0.0

    @property
    def worst_step(self) -> int:
        """The worst decision step observed anywhere."""
        return max(self.steps, default=0)

    @property
    def mean_messages(self) -> float:
        return statistics.fmean(self.messages) if self.messages else 0.0

    def step_percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q < 1``) of individual decision steps."""
        if not self.steps:
            return 0.0
        ordered = sorted(self.steps)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return float(ordered[index])

    def kind_fraction(self, kind: DecisionKind) -> float:
        """Fraction of correct decisions made through ``kind``."""
        total = sum(self.kinds.values())
        return self.kinds.get(kind, 0) / total if total else 0.0

    def fraction_within(self, step: int) -> float:
        """Fraction of runs whose slowest correct decision was ``<= step``."""
        if not self.max_steps:
            return 0.0
        return sum(1 for s in self.max_steps if s <= step) / len(self.max_steps)

    def step_histogram(self) -> dict[int, int]:
        """Histogram of individual decision steps."""
        return dict(sorted(Counter(self.steps).items()))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI for the mean per-run slowest step.

        Args:
            z: critical value (1.96 ≈ 95%).

        Returns:
            ``(low, high)``; collapses to the point estimate for fewer than
            two runs.
        """
        if len(self.max_steps) < 2:
            mean = self.mean_max_step
            return (mean, mean)
        mean = self.mean_max_step
        stdev = statistics.stdev(self.max_steps)
        half = z * stdev / (len(self.max_steps) ** 0.5)
        return (mean - half, mean + half)

    def summary(self) -> dict[str, float]:
        """The headline numbers as one flat dict (for report rows)."""
        return {
            "runs": self.runs,
            "mean_step": round(self.mean_step, 3),
            "mean_max_step": round(self.mean_max_step, 3),
            "worst_step": self.worst_step,
            "p50_step": self.step_percentile(0.50),
            "p99_step": self.step_percentile(0.99),
            "one_step_frac": round(self.kind_fraction(DecisionKind.ONE_STEP), 3),
            "two_step_frac": round(self.kind_fraction(DecisionKind.TWO_STEP), 3),
            "fast_frac": round(self.kind_fraction(DecisionKind.FAST), 3),
            "underlying_frac": round(self.kind_fraction(DecisionKind.UNDERLYING), 3),
            "mean_messages": round(self.mean_messages, 1),
            "agreement_violations": self.agreement_violations,
            "unanimity_violations": self.unanimity_violations,
        }


@dataclass
class StreamAggregate:
    """Aggregation over per-run event-stream counters.

    Where :class:`RunAggregate` folds finished ``RunResult`` objects, this
    collector folds the :class:`~repro.engine.events.EventStats` a run's
    event sink computed online: attach a fresh stats sink per run
    (:meth:`new_sink`), then :meth:`add_stats` it.  Nothing per-message is
    retained — only counters and the per-decision step/kind tallies — so
    a long streaming sweep costs O(runs) memory regardless of traffic.
    """

    label: str = ""
    runs: int = 0
    sends: int = 0
    delivers: int = 0
    service_calls: int = 0
    steps: list[int] = field(default_factory=list)
    max_steps: list[int] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    wall_times: list[float] = field(default_factory=list)
    decision_latencies: list[float] = field(default_factory=list)
    timeouts: int = 0

    @staticmethod
    def new_sink() -> EventStats:
        """A fresh per-run stats sink (pass as a scenario's event sink)."""
        return EventStats()

    def add_stats(
        self,
        stats: EventStats,
        wall_seconds: float | None = None,
        timed_out: bool = False,
    ) -> None:
        """Fold one run's online counters in.

        Args:
            stats: the run's :class:`EventStats` sink, after the run.
            wall_seconds: the run's wall-clock duration, when the engine
                measures one (feeds throughput/latency).
            timed_out: whether the run hit its deadline.
        """
        self.runs += 1
        self.sends += stats.sends
        self.delivers += stats.delivers
        self.service_calls += stats.service_calls
        self.steps.extend(stats.decide_steps.values())
        if stats.decide_steps:
            self.max_steps.append(max(stats.decide_steps.values()))
        self.kinds.update(stats.decide_kinds)
        if wall_seconds is not None:
            self.wall_times.append(wall_seconds)
        self.decision_latencies.extend(stats.decide_times.values())
        if timed_out:
            self.timeouts += 1

    # -- derived statistics -----------------------------------------------------------

    @property
    def mean_step(self) -> float:
        return statistics.fmean(self.steps) if self.steps else 0.0

    @property
    def mean_max_step(self) -> float:
        return statistics.fmean(self.max_steps) if self.max_steps else 0.0

    @property
    def one_step_fraction(self) -> float:
        """Fraction of decisions made within one communication step."""
        if not self.steps:
            return 0.0
        return sum(1 for s in self.steps if s <= 1) / len(self.steps)

    def kind_fraction(self, kind: DecisionKind) -> float:
        total = sum(self.kinds.values())
        return self.kinds.get(kind, 0) / total if total else 0.0

    @property
    def mean_wall_seconds(self) -> float:
        return statistics.fmean(self.wall_times) if self.wall_times else 0.0

    @property
    def throughput(self) -> float:
        """Delivered messages per wall-clock second (0 without timings)."""
        total = sum(self.wall_times)
        return self.delivers / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile of per-decision latencies (event times)."""
        if not self.decision_latencies:
            return 0.0
        ordered = sorted(self.decision_latencies)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return float(ordered[index])

    def latency_percentile_or_none(self, q: float) -> float | None:
        """Like :meth:`latency_percentile`, but ``None`` when there are no
        samples — a shard that decided nothing (empty, or shed-only at the
        frontend) has *no* latency, and the saturation plots must render
        that as a gap rather than a fabricated 0.0."""
        if not self.decision_latencies:
            return None
        return self.latency_percentile(q)

    def summary(self) -> dict[str, float]:
        """The headline numbers as one flat dict (for report rows)."""
        return {
            "runs": self.runs,
            "sends": self.sends,
            "delivers": self.delivers,
            "service_calls": self.service_calls,
            "mean_step": round(self.mean_step, 3),
            "mean_max_step": round(self.mean_max_step, 3),
            "one_step_frac": round(self.one_step_fraction, 3),
            "two_step_frac": round(self.kind_fraction(DecisionKind.TWO_STEP), 3),
            "underlying_frac": round(self.kind_fraction(DecisionKind.UNDERLYING), 3),
            "mean_wall_seconds": round(self.mean_wall_seconds, 6),
            "throughput_msgs_per_s": round(self.throughput, 1),
            "p50_decision_latency_s": round(self.latency_percentile(0.50), 6),
            "p99_decision_latency_s": round(self.latency_percentile(0.99), 6),
            "timeouts": self.timeouts,
        }
