"""Aggregation of run results into experiment statistics.

One :class:`RunAggregate` summarises a batch of
:class:`~repro.engine.run.RunResult` values — decision-step distribution,
decision-kind mix, message and latency statistics — which the report layer
renders and the benchmarks assert on.  The sharded service's per-slot
rows are folded by :class:`~repro.shard.metrics.ShardStreamSink` instead.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from ..engine.run import RunResult
from ..types import DecisionKind, percentile


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
        return percentile(self.steps, q) or 0.0

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
