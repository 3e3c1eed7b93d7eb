"""Brasileiro et al.'s one-step converter (SRDS 2001) — crash-model baseline.

The first one-step scheme (Table 1, row "Brasileiro et.al [2]"): a wrapper
that turns any crash-tolerant consensus into one deciding in a single step
when all processes propose the same value, for ``n > 3t`` crash failures:

1. broadcast the initial value, collect the first ``n − t`` values;
2. if **all** ``n − t`` values equal ``v``: decide ``v`` (one step);
3. if at least ``n − 2t`` of them equal ``v``: propose ``v`` to the
   underlying consensus, otherwise propose the own value;
4. adopt the underlying consensus' decision if step 2 didn't fire.

BOSCO (:mod:`repro.baselines.bosco`) is the same first-quorum vote with
Byzantine thresholds, so :class:`FirstQuorumVote` carries the steps both
share — the broadcast, the tally, the once-only evaluation and the
underlying-consensus proposal — and each algorithm supplies its vote
record, its resilience check and its two thresholds.  Step 4 is
:class:`~repro.underlying.base.FallbackConsensus`.

Safety rests on crash semantics (a faulty process may stop but never lies),
so deployments of this baseline must restrict the fault injection to
:class:`~repro.byzantine.adversary.CrashBehavior` /
:class:`~repro.byzantine.adversary.SilentBehavior` — which the experiment
harness (:mod:`repro.harness`) enforces.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from ..conditions.incremental import ViewStats, storable
from ..errors import ResilienceError
from ..runtime.effects import Broadcast, Effect
from ..types import DecisionKind, ProcessId, SystemConfig, Value
from ..underlying.base import FallbackConsensus, UcFactory
from ..codec.schema import wire_record


@wire_record(tag=22)
@dataclass(frozen=True, slots=True)
class BrasileiroValue:
    """The single broadcast message of the converter."""

    value: Value


class FirstQuorumVote(FallbackConsensus):
    """Broadcast a vote; on the ``n − t``-th vote received, evaluate once.

    The evaluation decides the most frequent vote when :meth:`decides_fast`
    holds for its count, and proposes it to the underlying consensus when
    :meth:`adopts` holds (the own proposal otherwise).  Both thresholds of
    every subclass need more than half of the ``n − t`` votes, so at most
    one value clears either and, when one does, it is the maintained most
    frequent vote — no scan over the tally.

    Subclasses set :attr:`vote` (the broadcast wire record, one ``value``
    field) and :attr:`label` (the prefix of their log events).
    """

    vote: type
    label: str

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposal: Value,
        uc_factory: UcFactory | None = None,
    ) -> None:
        super().__init__(process_id, config, proposal, uc_factory)
        # Votes are binding per sender, so the running top count makes the
        # one-shot evaluation O(1).
        self._votes = ViewStats(config.n)
        self._evaluated = False

    @abc.abstractmethod
    def decides_fast(self, top: int) -> bool:
        """May ``top`` equal votes among the first ``n − t`` decide at once?"""

    @abc.abstractmethod
    def adopts(self, top: int) -> bool:
        """Do ``top`` equal votes make that value the UC proposal?"""

    def on_start(self) -> list[Effect]:
        return [Broadcast(self.vote(self.proposal))]

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if not isinstance(payload, self.vote):
            return [self.log(f"{self.label}-ignored", sender=sender, payload=repr(payload))]
        if not storable(payload.value):
            return [self.log(f"{self.label}-value-refused", sender=sender)]
        self._votes.set_entry(sender, payload.value)
        if self._votes.known >= self.quorum and not self._evaluated:
            return self._evaluate()
        return []

    def _evaluate(self) -> list[Effect]:
        self._evaluated = True
        top_value = self._votes.first()
        top = self._votes.first_count
        effects: list[Effect] = []
        if self.decides_fast(top):
            effects.extend(self._decide(top_value, DecisionKind.FAST))
        next_proposal = top_value if self.adopts(top) else self.proposal
        effects.extend(self.child_call("uc", self._uc.propose(next_proposal)))
        return effects


class BrasileiroConsensus(FirstQuorumVote):
    """One process's instance of the crash-model one-step converter.

    Args:
        process_id: hosting process.
        config: must satisfy ``n > 3t`` (crash failures).
        proposal: the initial value.
        uc_factory: underlying-consensus child factory.
    """

    vote = BrasileiroValue
    label = "brasileiro"

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposal: Value,
        uc_factory: UcFactory | None = None,
    ) -> None:
        if not config.satisfies(3):
            raise ResilienceError("Brasileiro", config.n, config.t, "n > 3t")
        super().__init__(process_id, config, proposal, uc_factory)

    def decides_fast(self, top: int) -> bool:
        return top >= self.n - self.t  # all n − t received values identical

    def adopts(self, top: int) -> bool:
        # n − 2t > (n − t)/2 ⇔ n > 3t, which the constructor enforces
        return top >= self.n - 2 * self.t
