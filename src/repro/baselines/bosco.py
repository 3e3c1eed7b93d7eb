"""BOSCO — one-step Byzantine consensus (Song & van Renesse, DISC 2008).

The comparison point of the paper's Table 1 (row "Yee et.al [12] (Bosco)").
Every process broadcasts a vote; **at the moment the ``n − t``-th vote
arrives** the process evaluates, exactly once:

* if *more than* ``(n + 3t) / 2`` votes carry the same value ``v``, decide
  ``v`` immediately (one step);
* if more than ``(n − t) / 2`` votes carry the same value ``v`` — necessarily
  unique — propose ``v`` to the underlying consensus, otherwise propose the
  own initial value;
* adopt the underlying consensus' decision if none was made.

That is Brasileiro's first-quorum vote with Byzantine thresholds: the
broadcast, the tally, the once-only evaluation and the fallback are
:class:`~repro.baselines.brasileiro.FirstQuorumVote`; this module supplies
the vote record, the resilience check and the two thresholds.

With ``n > 5t`` BOSCO is *weakly* one-step (one-step decision when all
processes propose the same value and no process is faulty); with ``n > 7t``
the same algorithm is *strongly* one-step (one-step decision whenever all
*correct* processes propose the same value, any number ``≤ t`` of faults).

The instructive contrast with DEX: BOSCO's predicate is evaluated on the
*first* ``n − t`` votes only, whereas DEX keeps re-evaluating as further
(correct) proposals arrive — the adaptiveness gap that experiment E1
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ResilienceError
from ..types import ProcessId, SystemConfig, Value
from ..underlying.base import UcFactory
from ..codec.schema import wire_record
from .brasileiro import FirstQuorumVote


@wire_record(tag=21)
@dataclass(frozen=True, slots=True)
class BoscoVote:
    """The single broadcast message of BOSCO."""

    value: Value


class BoscoConsensus(FirstQuorumVote):
    """One process's BOSCO instance.

    Args:
        process_id: hosting process.
        config: ``n > 5t`` for ``variant="weak"``, ``n > 7t`` for
            ``variant="strong"``.
        proposal: the initial value.
        variant: which one-step property the deployment claims; the message
            flow is identical, only the resilience check differs.
        uc_factory: underlying-consensus child factory (defaults to the
            oracle abstraction, as for DEX).
    """

    RATIOS = {"weak": 5, "strong": 7}
    vote = BoscoVote
    label = "bosco"

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposal: Value,
        variant: str = "weak",
        uc_factory: UcFactory | None = None,
    ) -> None:
        if variant not in self.RATIOS:
            raise ValueError(f"variant must be 'weak' or 'strong', got {variant!r}")
        ratio = self.RATIOS[variant]
        if not config.satisfies(ratio):
            raise ResilienceError(
                f"BOSCO ({variant})", config.n, config.t, f"n > {ratio}t"
            )
        super().__init__(process_id, config, proposal, uc_factory)
        self.variant = variant

    def decides_fast(self, top: int) -> bool:
        return 2 * top > self.n + 3 * self.t

    def adopts(self, top: int) -> bool:
        return 2 * top > self.n - self.t
