"""Oracle underlying consensus — the paper's §2.2 abstraction as a service.

The paper deliberately does not fix an underlying consensus algorithm; it
assumes one exists (via partial synchrony, failure detectors, randomization
— "we simply assume an abstraction of them").  :class:`OracleService` is
that abstraction made executable: a trusted harness component that

* collects ``UC_propose`` values, at most one per caller;
* once proposals from ``n − t`` distinct processes arrived, fixes the
  decision to the most frequent proposed value (ties broken towards the
  largest) — with ``n > 3t`` this preserves unanimity because correct
  proposals outnumber Byzantine ones in any ``n − t`` quorum;
* announces the decision to every process.

Causal step accounting is preserved: the decision carries
``max(depth of the quorum proposals) + step_cost``.  ``step_cost`` defaults
to 2 — the optimal latency of consensus in well-behaved runs [9] — which is
exactly the modelling that makes DEX's worst case "four steps in
well-behaved runs" (2-step IDB proposal pipeline + 2-step UC) and BOSCO's
"three steps" (1 + 2) measurable in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..runtime.effects import Deliver, Effect, ServiceCall
from ..runtime.services import Service, ServiceReply
from ..types import ProcessId, SystemConfig, Value, largest
from .base import UC_DECIDE_TAG, UnderlyingConsensus
from ..codec.schema import wire_record

#: Default service name used by :class:`OracleConsensus`.
SERVICE_NAME = "oracle-uc"


@wire_record(tag=19)
@dataclass(frozen=True, slots=True)
class OracleProposal:
    """``UC_propose(value)`` request for one consensus instance."""

    instance: Any
    value: Value


@wire_record(tag=20)
@dataclass(frozen=True, slots=True)
class OracleDecision:
    """``UC_decide(value)`` announcement for one consensus instance."""

    instance: Any
    value: Value


class OracleService(Service):
    """Trusted realisation of the underlying consensus primitive.

    Args:
        config: the ``(n, t)`` parameters; the quorum is ``n − t``.
        step_cost: causal steps the abstract consensus costs on top of its
            slowest quorum proposal (default 2, the failure-free optimum).
        reply_delay: simulated latency of the decision announcement.
    """

    def __init__(
        self, config: SystemConfig, step_cost: int = 2, reply_delay: float = 1.0
    ) -> None:
        if step_cost < 0 or reply_delay < 0:
            raise ValueError("step_cost and reply_delay must be non-negative")
        self.config = config
        self.step_cost = step_cost
        self.reply_delay = reply_delay
        self._proposals: dict[
            Any, dict[ProcessId, tuple[Value, int, tuple[str, ...]]]
        ] = {}
        self._decisions: dict[Any, tuple[Value, int]] = {}

    def reset(self) -> None:
        self._proposals.clear()
        self._decisions.clear()

    def on_call(
        self,
        caller: ProcessId,
        payload: Any,
        depth: int,
        time: float,
        reply_path: tuple[str, ...] = (),
    ) -> list[ServiceReply]:
        if not isinstance(payload, OracleProposal):
            return []  # garbage from a Byzantine caller
        instance = payload.instance
        try:
            hash((instance, payload.value))
        except TypeError:
            return []  # garbage too: an unhashable instance or value keys no book
        if instance in self._decisions:
            # Late proposer: repeat the announcement to it alone, along the
            # path of *this* request.
            value, decision_depth = self._decisions[instance]
            return [
                ServiceReply(
                    caller,
                    OracleDecision(instance, value),
                    max(decision_depth, depth + self.step_cost),
                    self.reply_delay,
                    reply_path,
                )
            ]
        proposals = self._proposals.setdefault(instance, {})
        proposals.setdefault(caller, (payload.value, depth, reply_path))
        if len(proposals) < self.config.quorum:
            return []
        value = self._choose(proposals)
        decision_depth = max(d for _, d, _ in proposals.values()) + self.step_cost
        self._decisions[instance] = (value, decision_depth)
        announcement = OracleDecision(instance, value)
        # Announce to every proposer so far, each along its own request
        # path; processes that have not proposed this instance yet get the
        # decision when their proposal arrives (late-proposer branch, which
        # reads ``_decisions`` only — the proposal book is done).
        del self._proposals[instance]
        return [
            ServiceReply(dst, announcement, decision_depth, self.reply_delay, path)
            for dst, (_, _, path) in proposals.items()
        ]

    @staticmethod
    def _choose(
        proposals: dict[ProcessId, tuple[Value, int, tuple[str, ...]]]
    ) -> Value:
        """Most frequent proposed value; ties broken towards the largest."""
        counts: dict[Value, int] = {}
        for value, _, _ in proposals.values():
            counts[value] = counts.get(value, 0) + 1
        best = max(counts.values())
        return largest(v for v, c in counts.items() if c == best)


class OracleConsensus(UnderlyingConsensus):
    """Process-side adapter speaking to :class:`OracleService`.

    Args:
        process_id: hosting process.
        config: system parameters.
        instance: consensus instance key (lets one service serve repeated
            consensus, e.g. one instance per replicated-state-machine slot).
        service: registered name of the oracle service.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        instance: Any = 0,
        service: str = SERVICE_NAME,
    ) -> None:
        super().__init__(process_id, config)
        self.instance = instance
        self.service = service
        self._proposed = False
        self._decided = False

    @property
    def has_proposed(self) -> bool:
        return self._proposed

    @property
    def inert(self) -> bool:
        """Proposing is this adapter's one duty: once done, an arrival can
        at most surface the service's decision to the parent."""
        return self._proposed

    def propose(self, value: Value) -> list[Effect]:
        if self._proposed:
            return []
        self._proposed = True
        return [ServiceCall(self.service, OracleProposal(self.instance, value))]

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if (
            isinstance(payload, OracleDecision)
            and payload.instance == self.instance
            and not self._decided
        ):
            self._decided = True
            return [Deliver(UC_DECIDE_TAG, self.process_id, payload.value)]
        return []
