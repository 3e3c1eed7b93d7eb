"""Plain two-step baseline: go straight to the underlying consensus.

The zero-degradation reference point: no fast path at all (the shared
:class:`~repro.underlying.base.FallbackConsensus` alone), every run costs
exactly the underlying consensus' latency (two steps under the oracle
abstraction with its default ``step_cost=2`` — the failure-free optimum of
[9]).  Against this baseline the benchmarks show both sides of the paper's
trade-off: the fast paths win whenever an input lies inside a condition,
and DEX's pipelined fallback (4 steps) loses to it when the input doesn't.
"""

from __future__ import annotations

from typing import Any

from ..runtime.effects import Effect
from ..types import ProcessId
from ..underlying.base import FallbackConsensus


class TwoStepConsensus(FallbackConsensus):
    """Propose to the underlying consensus at start; adopt its decision."""

    def on_start(self) -> list[Effect]:
        return self.child_call("uc", self._uc.propose(self.proposal))

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        return []
