"""Byzantine behavior framework.

A Byzantine process "can behave arbitrarily, … even not follow the deployed
algorithm" (§2.1).  In this library a Byzantine process is simply a
:class:`~repro.runtime.protocol.Protocol` whose handlers do whatever the
experiment needs — the runtimes give it no extra powers and impose no
constraints (beyond sender authentication, which the model guarantees).

Most useful adversaries are built by *wrapping* the honest protocol and
perturbing its output: dropping messages mid-broadcast (crash), rewriting
values per destination (equivocation), or running two honest instances and
showing a different face to each half of the system.  The wrappers are
:class:`~repro.engine.interpreter.EffectRewriter` subclasses — they state
only their deviation from honest pass-through as ``rewrite_*`` visitors,
and the engine's single dispatch path does the effect-type analysis.  With
:attr:`~repro.engine.interpreter.EffectRewriter.rewriter_expands_broadcasts`
every ``Broadcast`` is expanded into per-destination ``Send`` effects
first, so perturbations can differ per receiver.
"""

from __future__ import annotations

from typing import Any, Callable

from ..engine.interpreter import CensoringRewriter, expand_broadcasts
from ..runtime.effects import Broadcast, Effect, Log, Send, ServiceCall
from ..runtime.protocol import Protocol, guarded
from ..types import BOTTOM, ProcessId

__all__ = [
    "expand_broadcasts",
    "Mutator",
    "ByzantineBehavior",
    "SilentBehavior",
    "CrashBehavior",
    "RoundCrashBehavior",
    "MutatingBehavior",
    "TwoFacedBehavior",
]

#: Rewrites an outgoing payload for one destination; ``None`` drops it.
Mutator = Callable[[ProcessId, Any], Any]


class ByzantineBehavior(Protocol):
    """Marker base class for faulty-process behaviors."""

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        return []


class SilentBehavior(ByzantineBehavior):
    """The weakest fault: the process never sends anything (a full crash
    before the run, equivalently a crash failure at time zero)."""


class CrashBehavior(ByzantineBehavior, CensoringRewriter):
    """Run the honest protocol but crash after sending ``budget`` messages.

    A crash mid-broadcast (budget smaller than ``n``) leaves the system in
    the classic asymmetric state where only a prefix of processes heard the
    proposal — the situation crash-tolerant one-step algorithms must ride
    out.

    Args:
        inner: the honest protocol instance to run until the crash.
        budget: total number of point-to-point messages allowed out.
    """

    rewriter_expands_broadcasts = True

    def __init__(self, inner: Protocol, budget: int) -> None:
        super().__init__(inner.process_id, inner.config)
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.inner = inner
        self.remaining = budget
        self.crashed = False
        self._rewrite_stopped = False

    def rewrite_send(self, effect: Send) -> Effect:
        if self.remaining <= 0:
            self.crashed = True
            self.stop_rewrite()
            return self.log("crashed")
        self.remaining -= 1
        return effect

    def on_start(self) -> list[Effect]:
        return self.rewrite_effects(self.inner.on_start())

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if self.crashed:
            return []
        return self.rewrite_effects(guarded(self.inner, sender, payload))


class RoundCrashBehavior(ByzantineBehavior, CensoringRewriter):
    """Run a round protocol (one broadcast a round) honestly, then crash in
    round ``round``: that round's broadcast reaches only ``delivered_to``,
    and no later one reaches anybody.

    Every copy the crashed process no longer delivers is sent as ``⊥``
    instead — the synchronous model's round timeout, made visible — so a
    receiver still hears one item per process each round and can end the
    round on the ``n``-th.  The inner protocol keeps running only to keep
    that beat.
    """

    def __init__(self, inner: Protocol, round: int, delivered_to: frozenset[ProcessId]) -> None:
        super().__init__(inner.process_id, inner.config)
        self.inner = inner
        self.round = round
        self.delivered_to = delivered_to
        self.broadcasts = 0
        self._rewrite_stopped = False

    def rewrite_broadcast(self, effect: Broadcast) -> Effect | list[Effect]:
        self.broadcasts += 1
        if self.broadcasts < self.round:
            return effect
        reached = self.delivered_to if self.broadcasts == self.round else ()
        return [
            Send(dst, effect.payload if dst in reached else BOTTOM)
            for dst in self.config.processes
        ]

    def on_start(self) -> list[Effect]:
        return self.rewrite_effects(self.inner.on_start())

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        return self.rewrite_effects(guarded(self.inner, sender, payload))


class MutatingBehavior(ByzantineBehavior, CensoringRewriter):
    """Run the honest protocol but rewrite each outgoing message.

    The ``mutator`` sees ``(dst, payload)`` and returns the payload to send
    (possibly different per destination — equivocation) or ``None`` to drop
    it.  Service calls pass through unmodified: a Byzantine process may use
    the underlying consensus with arbitrary proposals, which the primitive
    tolerates by assumption.
    """

    rewriter_expands_broadcasts = True

    def __init__(self, inner: Protocol, mutator: Mutator) -> None:
        super().__init__(inner.process_id, inner.config)
        self.inner = inner
        self.mutator = mutator
        self._rewrite_stopped = False

    def rewrite_send(self, effect: Send) -> Effect | None:
        mutated = self.mutator(effect.dst, effect.payload)
        if mutated is None:
            return None
        return Send(effect.dst, mutated)

    def on_start(self) -> list[Effect]:
        return self.rewrite_effects(self.inner.on_start())

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        return self.rewrite_effects(guarded(self.inner, sender, payload))


class TwoFacedBehavior(ByzantineBehavior, CensoringRewriter):
    """Run two honest instances and show a different one to each group.

    This is the strongest *consistent* equivocation: each half of the
    system observes a perfectly protocol-conformant process, but the two
    halves observe different proposals.  It is the scenario of Figure 2
    (process ``P3`` sending different messages to ``P1`` and ``P4``) played
    at every protocol layer simultaneously.

    Args:
        face_a: honest instance shown to group A.
        face_b: honest instance shown to group B.
        group_of: maps a destination to ``"a"`` or ``"b"``; default is id
            parity.
    """

    rewriter_expands_broadcasts = True

    def __init__(
        self,
        face_a: Protocol,
        face_b: Protocol,
        group_of: Callable[[ProcessId], str] | None = None,
    ) -> None:
        super().__init__(face_a.process_id, face_a.config)
        self.face_a = face_a
        self.face_b = face_b
        self.group_of = group_of or (lambda dst: "a" if dst % 2 == 0 else "b")
        self._face = "a"
        self._rewrite_stopped = False

    def _filter(self, effects: list[Effect], face: str) -> list[Effect]:
        self._face = face
        return self.rewrite_effects(effects)

    def rewrite_send(self, effect: Send) -> Effect | None:
        return effect if self.group_of(effect.dst) == self._face else None

    def rewrite_service_call(self, effect: ServiceCall) -> Effect | None:
        return effect if self._face == "a" else None  # one service identity

    def rewrite_log(self, effect: Log) -> None:
        return None

    def on_start(self) -> list[Effect]:
        return self._filter(self.face_a.on_start(), "a") + self._filter(
            self.face_b.on_start(), "b"
        )

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        return self._filter(guarded(self.face_a, sender, payload), "a") + self._filter(
            guarded(self.face_b, sender, payload), "b"
        )
