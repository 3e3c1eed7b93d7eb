"""One-round condition-based consensus in the synchronous crash model.

The Table 1 row "Mostefaoui et.al [11]" (synchronous, crash, ``t+1``
processes, condition-based one-step decision).  An ordinary
:class:`~repro.runtime.protocol.Protocol` for the lockstep engine
(``engine="sync"``), which delivers all of round ``r``'s messages together
in round ``r + 1``.  A crash is the :class:`~repro.engine.faults.RoundCrash`
fault, which shows each message a crashed process no longer sends to its
receiver as ``⊥``.  So every round a process hears one item per process,
and it ends the round on the ``n``-th:

* **round 1** — broadcast the proposal; build the view ``V`` (``⊥`` for
  senders whose message was lost to a crash).  Decide ``1st(V)`` right at
  the end of round 1 when

  .. math:: \\#_{1st(V)}(V) - \\#_{2nd(V)}(V) > t + \\#_\\bot(V)

* **rounds 2 … t+1** — flood everything known (values per process and any
  decision already made); adopt a flooded decision immediately;
* **end of round t+1** — decide ``1st`` of the flooded view (classic
  synchronous flooding: with at most ``t`` crashes, some round is
  crash-free, so all correct processes share an identical final view).

Safety of the fast path (views are sub-vectors of the input under
crashes): a round-1 decision on ``a`` implies ``a`` leads every other
value by more than ``t`` in the full input, so every other round-1 view
still ranks ``a`` strictly first, and the flooded final view — which can
miss at most the ``t − 1`` other faulty entries of the decider's view —
still ranks ``a`` first as well.  With ``f`` actual crashes the round-1
view misses at most ``f`` entries, so one-round decision is guaranteed for
``I ∈ C_freq(t + 2f)`` — again the adaptive sequence ``C_k =
C_freq(t + 2k)``, now with resilience ``n > t``; its level is
:func:`~repro.baselines.crash_onestep.crash_one_step_level`.

Validity is the standard synchronous-crash one (the decision was proposed
by *some* process); the stronger unanimity over correct proposals
additionally needs ``n > 2f``, since the model cannot distinguish a
crashed majority's proposals from correct ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..conditions.views import View
from ..runtime.effects import Broadcast, Decide, Effect
from ..runtime.protocol import Protocol
from ..types import BOTTOM, DecisionKind, ProcessId, SystemConfig, Value
from ..codec.schema import wire_record


@wire_record(tag=24)
@dataclass(frozen=True, slots=True)
class SyncRound1:
    """Round-1 proposal."""

    value: Value


@wire_record(tag=25)
@dataclass(frozen=True, slots=True)
class SyncFlood:
    """Flooding message for rounds ``2 … t+1``."""

    known: tuple[tuple[ProcessId, Value], ...]
    decided: tuple[Value] | None = None


class SyncOneStepConsensus(Protocol):
    """One process of the synchronous one-round condition-based consensus.

    Its step is its round: a round-1 decision is ``ONE_STEP``, a later one
    (adopted or flooded) ``UNDERLYING``.
    """

    def __init__(self, process_id: ProcessId, config: SystemConfig, proposal: Value) -> None:
        super().__init__(process_id, config)
        self.proposal = proposal
        self.known: dict[ProcessId, Value] = {process_id: proposal}
        self.decision: Value | None = None
        self.decided_round: int | None = None
        self.round = 1
        self._heard = 0  # items of the current round

    # -- helpers ----------------------------------------------------------------

    def _view(self) -> View:
        entries: list[Value] = [BOTTOM] * self.config.n
        for pid, value in self.known.items():
            entries[pid] = value
        return View(entries)

    def _flood(self) -> SyncFlood:
        return SyncFlood(
            known=tuple(sorted(self.known.items())),
            decided=(self.decision,) if self.decision is not None else None,
        )

    def _decide(self, value: Value) -> None:
        if self.decision is None:
            self.decision = value
            self.decided_round = self.round

    # -- Protocol interface -------------------------------------------------------

    def on_start(self) -> list[Effect]:
        return [Broadcast(SyncRound1(self.proposal))]

    def on_message(self, sender: ProcessId, message: Any) -> list[Effect]:
        if self.round == 1:
            if isinstance(message, SyncRound1):
                self.known.setdefault(sender, message.value)
        elif isinstance(message, SyncFlood):
            for pid, value in message.known:
                if isinstance(pid, int) and 0 <= pid < self.config.n:
                    self.known.setdefault(pid, value)
            if message.decided is not None:
                self._decide(message.decided[0])
        self._heard += 1
        if self._heard < self.config.n:
            return []
        if self.round == 1:
            view = self._view()
            if view.frequency_gap() > self.config.t + self.config.n - view.known:
                self._decide(view.first())
        elif self.round >= self.config.t + 1:
            self._decide(self._view().first())
        effects: list[Effect] = []
        if self.decided_round == self.round:
            kind = DecisionKind.ONE_STEP if self.round == 1 else DecisionKind.UNDERLYING
            effects.append(Decide(self.decision, kind))
        self.round += 1
        self._heard = 0
        # Keep flooding even after deciding: laggards need the values.
        effects.append(Broadcast(self._flood()))
        return effects
