"""Concrete adversaries and payload mutators.

The mutators in this module understand the library's wire conventions:
protocol payloads are frozen dataclasses, most of which carry a ``value``
field, and composite-protocol traffic travels inside
:class:`~repro.runtime.composite.Envelope` wrappers which mutators descend
through.  That makes one mutator applicable to every layer of a composite
protocol (plain proposals, IDB init messages, …) at once.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable

from ..runtime.composite import Envelope
from ..runtime.effects import Effect, Send
from ..runtime.protocol import Protocol
from ..types import ProcessId, SystemConfig, Value
from .adversary import ByzantineBehavior, Mutator


def rewrite_value(payload: Any, value: Value) -> Any:
    """Return ``payload`` with its ``value`` field replaced, descending
    through envelopes.  Payloads without a ``value`` field pass unchanged."""
    if isinstance(payload, Envelope):
        return Envelope(payload.component, rewrite_value(payload.payload, value))
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        names = {f.name for f in dataclasses.fields(payload)}
        if "value" in names:
            return dataclasses.replace(payload, value=value)
    return payload


def equivocating_mutator(value_for: Callable[[ProcessId], Value]) -> Mutator:
    """A mutator that tells each destination a (possibly) different value.

    ``value_for(dst)`` chooses the value shown to ``dst``; the classic
    Figure 2 split is ``lambda dst: a if dst % 2 == 0 else b``.
    """

    def mutate(dst: ProcessId, payload: Any) -> Any:
        return rewrite_value(payload, value_for(dst))

    return mutate


def split_mutator(value_a: Value, value_b: Value) -> Mutator:
    """Equivocate by destination parity: even ids see ``value_a``, odd see
    ``value_b`` — the exact Figure 2 scenario generalised to all layers."""
    return equivocating_mutator(lambda dst: value_a if dst % 2 == 0 else value_b)


def dropping_mutator(drop_to: set[ProcessId]) -> Mutator:
    """Send honestly, but never to processes in ``drop_to`` (selective
    omission — a Byzantine-only capability on reliable links)."""

    def mutate(dst: ProcessId, payload: Any) -> Any:
        return None if dst in drop_to else payload

    return mutate


def compose_mutators(*mutators: Mutator) -> Mutator:
    """Apply mutators left to right; a ``None`` short-circuits to a drop."""

    def mutate(dst: ProcessId, payload: Any) -> Any:
        for m in mutators:
            if payload is None:
                return None
            payload = m(dst, payload)
        return payload

    return mutate


class RandomGarbageBehavior(ByzantineBehavior):
    """Spray structurally random payloads at random processes.

    Exercises the robustness requirement that malformed payloads are treated
    as silence (:func:`repro.runtime.protocol.guarded`): no correct process
    may crash or decide wrongly because of garbage.

    Args:
        templates: example payloads whose ``value`` field gets randomised;
            garbage stays wire-shaped enough to reach real handlers.
        values: pool of values to inject.
        fanout: messages sent at start and per received message.
        seed: behavior-local PRNG seed.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        templates: list[Any],
        values: list[Value],
        fanout: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__(process_id, config)
        if not templates or not values:
            raise ValueError("need at least one template and one value")
        self.templates = templates
        self.values = values
        self.fanout = fanout
        self.rng = random.Random(seed)

    def _spray(self) -> list[Effect]:
        out: list[Effect] = []
        for _ in range(self.fanout):
            dst = self.rng.randrange(self.config.n)
            template = self.rng.choice(self.templates)
            payload = rewrite_value(template, self.rng.choice(self.values))
            out.append(Send(dst, payload))
        return out

    def on_start(self) -> list[Effect]:
        return self._spray()

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if self.rng.random() < 0.5:
            return self._spray()
        return []
