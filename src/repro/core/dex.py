"""Algorithm DEX — doubly-expedited adaptive Byzantine consensus (Figure 1).

DEX runs three decision schemes concurrently, generic over any *legal*
condition-sequence pair ``(S¹, S², P1, P2, F)``:

* **one-step** (lines 5–9): plain proposals accumulate in view ``J1``; with
  ``|J1| ≥ n − t`` and ``P1(J1)``, decide ``F(J1)`` at depth 1;
* **two-step** (lines 10–18): Identical-Broadcast deliveries accumulate in
  ``J2``; with ``|J2| ≥ n − t``, propose ``F(J2)`` to the underlying
  consensus (once), and with ``P2(J2)`` decide ``F(J2)`` at depth 2;
* **fallback** (lines 19–22): adopt the underlying consensus' decision.

Unlike prior one-step Byzantine algorithms, DEX keeps updating both views
after the ``n − t`` threshold — "DEX allows the processes to collect
messages from all correct processes.  This is the real secret of its
ability to provide fast termination for more number of inputs" (§4) — so
the predicates are re-evaluated on *every* later arrival, which is what
makes the conditions adaptive in the actual failure count.

The protocol requires ``n > 5t`` (paper §2.1); the embedded IDB needs only
``n > 4t``, and the chosen condition pair may require more (the frequency
pair needs ``n > 6t``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..broadcast.idb import DELIVER_TAG as IDB_DELIVER_TAG
from ..broadcast.idb import IdenticalBroadcast
from ..conditions.base import ConditionSequencePair
from ..conditions.incremental import ViewStats, storable
from ..conditions.views import View
from ..errors import ConfigurationError, ResilienceError
from ..runtime.effects import Broadcast, Deliver, Effect
from ..runtime.protocol import Protocol
from ..types import DecisionKind, ProcessId, SystemConfig, Value, slot_init
from ..underlying.base import FallbackConsensus, UcFactory
from ..codec.schema import wire_record

#: Factory signature for the identical-broadcast child ("idb" slot).  The
#: returned protocol must expose ``id_send(value) -> list[Effect]`` and
#: surface ``Deliver(tag=IDB_DELIVER_TAG, sender=origin, value=m)`` upcalls —
#: the default is the real witness-based :class:`IdenticalBroadcast`; the
#: model checker substitutes the trusted oracle abstraction
#: (:class:`repro.mc.abstraction.OracleIdb`) to shrink the schedule space
#: while keeping exactly the three IDB properties the DEX proof consumes.
IdbFactory = Callable[[ProcessId, SystemConfig], Protocol]


@wire_record(tag=16, blobs=("value",))
@slot_init
@dataclass(frozen=True, slots=True)
class DexProposal:
    """The plain (``P-Send``) proposal message of line 3.

    ``value`` is blob-framed on the wire, like the ``value`` of
    :class:`~repro.broadcast.idb.IdbInit` and ``IdbEcho``: the three carry
    the same value bytes under different headers, and a length-prefixed
    span is what a replica's decoder memoises — one decode of a batch per
    replica, not one per message that quotes it.
    """

    value: Value


class DexConsensus(FallbackConsensus):
    """One process's DEX instance.

    Args:
        process_id: hosting process.
        config: must satisfy ``n > 5t``.
        pair: a legal condition-sequence pair built for the same ``(n, t)``.
        proposal: this process's initial value ``v_i``.
        uc_factory: builds the underlying-consensus child
            (:class:`~repro.underlying.base.FallbackConsensus`).
        idb_factory: builds the identical-broadcast child; defaults to the
            witness-based :class:`~repro.broadcast.idb.IdenticalBroadcast`.
            The model checker passes the oracle-IDB abstraction here.
        enforce_resilience: when False, skip the ``n > 5t`` check.  Used by
            the model checker to *demonstrate* what goes wrong below the
            bound (EXPERIMENTS.md E17); production runs keep it on.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        pair: ConditionSequencePair,
        proposal: Value,
        uc_factory: UcFactory | None = None,
        *,
        idb_factory: IdbFactory | None = None,
        enforce_resilience: bool = True,
    ) -> None:
        if enforce_resilience and not config.satisfies(5):
            raise ResilienceError("DEX", config.n, config.t, "n > 5t")
        if (pair.n, pair.t) != (config.n, config.t):
            raise ConfigurationError(
                f"condition pair built for (n={pair.n}, t={pair.t}) does not "
                f"match the system (n={config.n}, t={config.t})"
            )
        super().__init__(process_id, config, proposal, uc_factory)
        self.pair = pair
        make_idb = idb_factory or (lambda pid, cfg: IdenticalBroadcast(pid, cfg))
        self._idb = self.add_child("idb", make_idb(process_id, config))
        # Running statistics instead of raw entry lists: the pair's
        # predicates read them directly, O(1) per arrival.
        self._stats1 = ViewStats(config.n)
        self._stats2 = ViewStats(config.n)

    # -- observability -----------------------------------------------------------

    @property
    def view1(self) -> View:
        """Snapshot of the one-step view ``J1``."""
        return self._stats1.as_view()

    @property
    def view2(self) -> View:
        """Snapshot of the two-step (IDB) view ``J2``."""
        return self._stats2.as_view()

    @property
    def has_proposed_to_uc(self) -> bool:
        return self._uc.has_proposed

    @property
    def inert(self) -> bool:
        """True once no arrival can make this instance send, deliver or
        decide again, so whoever hosts it may drop it and its late traffic.

        Decided, every origin echoed, the underlying consensus activated: a
        late ``P-Send`` stops at ``decided``, a late ``init`` or echo at the
        IDB's ``_echoed``, a late Id-Receive finds the UC proposed and the
        instance decided, a late UC announcement stops at ``decided``.  A
        child that never says ``inert`` (a UC exchanging messages of its
        own, the model checker's oracle IDB) keeps the instance alive.
        """
        return self.decided and self._idb.inert and self._uc.inert

    # -- lines 1-4: Propose ---------------------------------------------------------

    def on_start(self) -> list[Effect]:
        self._stats1.set_entry(self.process_id, self.proposal)  # line 2
        self._stats2.set_entry(self.process_id, self.proposal)
        effects: list[Effect] = [Broadcast(DexProposal(self.proposal))]  # line 3
        effects.extend(self.child_call("idb", self._idb.id_send(self.proposal)))  # line 4
        return effects

    # -- lines 5-9: one-step scheme ----------------------------------------------------

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if type(payload) is not DexProposal and not isinstance(payload, DexProposal):
            return [self.log("dex-ignored", sender=sender, payload=repr(payload))]
        if not storable(payload.value):
            return [self.log("dex-value-refused", sender=sender)]
        self._stats1.set_entry(sender, payload.value)  # line 6 (binding write)
        if self.decided:
            return []
        return self._check_one_step()

    def _check_one_step(self) -> list[Effect]:
        stats = self._stats1
        if stats.known >= self.quorum and self.pair.p1(stats):
            return self._decide(self.pair.f(stats), DecisionKind.ONE_STEP)  # line 8
        return []

    # -- lines 10-22: two-step scheme and fallback ----------------------------------------

    def on_child_output(self, name: str, effect) -> list[Effect]:
        if name == "idb" and isinstance(effect, Deliver) and effect.tag == IDB_DELIVER_TAG:
            return self._on_id_receive(effect.sender, effect.value)
        return super().on_child_output(name, effect)  # lines 19-22

    def _on_id_receive(self, origin: ProcessId, value: Value) -> list[Effect]:
        if not storable(value):
            return [self.log("dex-value-refused", sender=origin)]
        stats = self._stats2
        stats.set_entry(origin, value)  # line 11 (binding write)
        if stats.known < self.quorum:
            return []
        effects: list[Effect] = []
        if not self._uc.has_proposed:
            # lines 12-15: activate the underlying consensus exactly once —
            # even after a local fast decision, so the fallback of slower
            # processes sees the same proposal traffic.
            effects.extend(self.child_call("uc", self._uc.propose(self.pair.f(stats))))
        if not self.decided and self.pair.p2(stats):
            effects.extend(
                self._decide(self.pair.f(stats), DecisionKind.TWO_STEP)  # line 17
            )
        return effects
