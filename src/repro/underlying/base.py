"""The underlying-consensus abstraction (paper §2.2).

DEX assumes "the underlying consensus primitive that ensures agreement,
termination and unanimity, but provides no guarantees about its running
time".  This module fixes the interface; two interchangeable
implementations ship with the library:

* :class:`repro.underlying.oracle.OracleConsensus` — the abstraction
  itself, realised as a trusted harness service (fast, deterministic,
  step-cost configurable).  This is what the paper assumes and what the
  benchmarks use by default.
* :class:`repro.underlying.multivalued.MultivaluedConsensus` — a real,
  signature-free Byzantine consensus built from Bracha reliable broadcast,
  common-coin binary agreement and an asynchronous common subset
  (``n > 3t``), so that no part of the reproduction is a stub.

Both expose ``propose(value)`` (the paper's ``UC_propose``) and announce
the decision with a ``Deliver(tag=UC_DECIDE_TAG, …)`` upcall (the paper's
``UC_decide``).

Every algorithm of the paper's Table 1 that runs on an underlying
consensus ends the same way: adopt its decision when no fast path decided
first (DEX lines 19–22).  :class:`FallbackConsensus` is that last step,
written once; DEX and the asynchronous baselines subclass it.
"""

from __future__ import annotations

import abc
from typing import Any, Callable

from ..runtime.composite import CompositeProtocol
from ..runtime.effects import Decide, Deliver, Effect
from ..runtime.protocol import Protocol
from ..types import DecisionKind, ProcessId, SystemConfig, Value

#: Upcall tag carrying the underlying consensus decision to the parent.
UC_DECIDE_TAG = "uc-decide"


class UnderlyingConsensus(Protocol):
    """Interface of the underlying consensus primitive.

    Contract (all under at most ``t`` Byzantine processes):

    * **Agreement** — no two correct processes decide differently;
    * **Termination** — if every correct process proposes, every correct
      process eventually decides;
    * **Unanimity** — if all correct processes propose ``v``, the decision
      is ``v``;
    * no timing guarantees whatsoever.
    """

    @abc.abstractmethod
    def propose(self, value: Value) -> list[Effect]:
        """``UC_propose(value)`` — at most one call per instance."""

    @property
    @abc.abstractmethod
    def has_proposed(self) -> bool:
        """True once :meth:`propose` was invoked."""


#: Factory signature for the underlying consensus child ("uc" slot).
UcFactory = Callable[[ProcessId, SystemConfig], UnderlyingConsensus]


def _oracle(process_id: ProcessId, config: SystemConfig) -> UnderlyingConsensus:
    from .oracle import OracleConsensus  # the oracle module imports this one

    return OracleConsensus(process_id, config)


class FallbackConsensus(CompositeProtocol):
    """One process's consensus instance whose last resort is the underlying
    consensus: it hosts the ``"uc"`` child and adopts the child's decision
    if nothing has decided yet.

    Subclasses add their fast paths and call :meth:`_decide` from them; an
    ``on_child_output`` override hands anything it does not handle itself
    to ``super()``.

    Args:
        process_id: hosting process.
        config: system parameters.
        proposal: this process's initial value ``v_i``.
        uc_factory: builds the underlying-consensus child; defaults to the
            oracle abstraction (:class:`~repro.underlying.oracle.OracleConsensus`
            on service ``"oracle-uc"``).  Pass a
            :class:`~repro.underlying.multivalued.MultivaluedConsensus`
            factory for a fully trusted-component-free run.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposal: Value,
        uc_factory: UcFactory | None = None,
    ) -> None:
        super().__init__(process_id, config)
        self.proposal = proposal
        self._uc = self.add_child("uc", (uc_factory or _oracle)(process_id, config))
        self.decided = False
        self.decision_kind: DecisionKind | None = None

    def on_child_output(self, name: str, effect: Any) -> list[Effect]:
        if (
            name == "uc"
            and isinstance(effect, Deliver)
            and effect.tag == UC_DECIDE_TAG
            and not self.decided
        ):
            return self._decide(effect.value, DecisionKind.UNDERLYING)
        return []

    def _decide(self, value: Value, kind: DecisionKind) -> list[Effect]:
        self.decided = True
        self.decision_kind = kind
        return [Decide(value, kind)]
