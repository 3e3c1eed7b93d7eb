"""Adaptive condition-based one-step consensus for crash failures.

The Table 1 row "Izumi et.al [8]" (asynchronous, crash, ``3t+1``,
condition-based one-step): the adaptive condition-based approach was
introduced there, and DEX is its Byzantine descendant.  This implementation
is the crash-model skeleton of DEX — one view, one fast path, the
underlying consensus as fallback (:class:`~repro.underlying.base.FallbackConsensus`):

* broadcast the proposal; maintain the view ``J`` of first values;
* on every update with ``|J| ≥ n − t``: propose ``1st(J)`` to the
  underlying consensus (once), and decide ``1st(J)`` immediately when

  .. math:: \\#_{1st(J)}(J) - \\#_{2nd(J)}(J) > t + \\#_\\bot(J)

Why this predicate is safe under crashes (no lies, so every view is a
sub-vector of the input ``I``): if ``p`` decides ``a`` with ``k_p`` missing
entries, then in ``I`` the gap of ``a`` over any ``x`` exceeds
``t + k_p − k_p = t``; any other view ``J'`` misses at most ``t`` entries,
so ``a`` still leads by more than ``t − k' ≥ 0`` — every process's ``1st``
is ``a``, making both other fast deciders and every underlying-consensus
proposal agree with ``p``.

The guaranteed-fast-decision condition is adaptive exactly like DEX's:
with ``f`` actual crashes the view eventually misses only ``f`` entries,
so one-step decision is guaranteed for ``I ∈ C_freq(t + 2f)`` — the
sequence ``C_k = C_freq(t + 2k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..conditions.base import ConditionSequence
from ..conditions.frequency import FrequencyCondition
from ..conditions.incremental import ViewStats, storable
from ..conditions.views import View
from ..errors import ResilienceError
from ..runtime.effects import Broadcast, Effect
from ..types import DecisionKind, ProcessId, SystemConfig, Value
from ..underlying.base import FallbackConsensus, UcFactory
from ..codec.schema import wire_record


@wire_record(tag=23)
@dataclass(frozen=True, slots=True)
class CrashValue:
    """The single broadcast message."""

    value: Value


def crash_one_step_level(vector: View, t: int) -> int | None:
    """Largest ``k ≤ t`` with ``vector ∈ C_freq(t + 2k)``: the adaptive level
    of the crash-model one-step guarantee, here and in the synchronous
    one-round algorithm (:mod:`repro.baselines.sync_onestep`) alike."""
    sequence = ConditionSequence([FrequencyCondition(t + 2 * k) for k in range(t + 1)])
    return sequence.level_of(vector)


class IzumiCrashConsensus(FallbackConsensus):
    """One process's instance of the adaptive crash-model one-step scheme.

    Args:
        process_id: hosting process.
        config: must satisfy ``n > 3t`` (the Table 1 resilience of the row;
            the fast path itself only needs ``n > t``).
        proposal: initial value.
        uc_factory: underlying-consensus child factory.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposal: Value,
        uc_factory: UcFactory | None = None,
    ) -> None:
        if not config.satisfies(3):
            raise ResilienceError("IzumiCrashConsensus", config.n, config.t, "n > 3t")
        super().__init__(process_id, config, proposal, uc_factory)
        # Running view statistics — the predicate re-fires on every arrival
        # (the crash-model skeleton of DEX), so it pays the same O(1) way.
        self._stats = ViewStats(config.n)

    @property
    def view(self) -> View:
        return self._stats.as_view()

    def on_start(self) -> list[Effect]:
        self._stats.set_entry(self.process_id, self.proposal)
        return [Broadcast(CrashValue(self.proposal))] + self._check()

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if not isinstance(payload, CrashValue):
            return [self.log("izumi-ignored", sender=sender)]
        if not storable(payload.value):
            return [self.log("izumi-value-refused", sender=sender)]
        self._stats.set_entry(sender, payload.value)
        if self.decided and self._uc.has_proposed:
            return []
        return self._check()

    def _check(self) -> list[Effect]:
        stats = self._stats
        if stats.known < self.quorum:
            return []
        effects: list[Effect] = []
        if not self._uc.has_proposed:
            effects.extend(self.child_call("uc", self._uc.propose(stats.first())))
        missing = self.n - stats.known
        if not self.decided and stats.frequency_gap() > self.t + missing:
            effects.extend(self._decide(stats.first(), DecisionKind.ONE_STEP))
        return effects
