"""Protocol composition: running sub-protocols inside a parent protocol.

DEX (Figure 1) is a composite: it exchanges its own plain messages, embeds
an Identical Broadcast instance (Figure 3) and an underlying-consensus
instance, and reacts to their upcalls.  The same pattern recurs inside the
real underlying consensus (ACS embeds ``n`` reliable broadcasts and ``n``
binary-agreement instances).

Wire format: a child component's messages travel wrapped in an
:class:`Envelope` naming the component, so different components of the same
composite — and recursively nested composites — never confuse each other's
messages.  Upcalls (:class:`~repro.runtime.effects.Deliver` /
:class:`~repro.runtime.effects.Decide` effects emitted by a child) are
intercepted locally and routed to :meth:`CompositeProtocol.on_child_output`.
"""

from __future__ import annotations

from typing import Any

from ..engine.interpreter import EffectRewriter
from ..types import ProcessId
from .effects import Broadcast, Decide, Deliver, Effect, Envelope, Send, ServiceCall
from .protocol import Protocol

__all__ = ["CompositeProtocol", "Envelope"]


class CompositeProtocol(Protocol, EffectRewriter):
    """A protocol that hosts named child protocols.

    Subclasses register children with :meth:`add_child`, drive them by
    passing the effects of child method calls through :meth:`child_call`,
    and receive their upcalls in :meth:`on_child_output`.  Messages arriving
    in an :class:`Envelope` are routed to the named child automatically by
    :meth:`on_message`; everything else goes to :meth:`on_own_message`.

    Routing is the :class:`~repro.engine.interpreter.EffectRewriter`
    dispatch: the ``rewrite_*`` visitors below wrap child traffic for the
    component currently being routed (``_route_component``), which is plain
    saved/restored state — not a cached helper object — so snapshots taken
    by the model checker restore cleanly and re-entrant routing (a child
    upcall driving another child) cannot corrupt the outer call.
    """

    def __init__(self, process_id: ProcessId, config) -> None:
        super().__init__(process_id, config)
        self._children: dict[str, Protocol] = {}
        self._route_component: str | None = None
        self._rewrite_stopped = False

    # -- child management --------------------------------------------------------

    def add_child(self, name: str, child: Protocol) -> Protocol:
        """Register ``child`` under ``name``; returns the child for chaining."""
        if name in self._children:
            raise ValueError(f"duplicate child component {name!r}")
        self._children[name] = child
        return child

    def child(self, name: str) -> Protocol:
        """Look up a registered child."""
        return self._children[name]

    def child_call(self, name: str, effects: list[Effect]) -> list[Effect]:
        """Post-process the effects of a child handler or method call.

        ``Send``/``Broadcast`` payloads are wrapped in an envelope for
        ``name``; ``ServiceCall`` replies are routed back to ``name``;
        ``Deliver``/``Decide`` upcalls are handed to
        :meth:`on_child_output`, whose own effects are processed
        recursively (they may drive other children).  Most handler calls
        (every echo short of a threshold) produce nothing to process.
        """
        if not effects:
            return []
        prev = self._route_component
        self._route_component = name
        try:
            return self.rewrite_effects(effects)
        finally:
            self._route_component = prev

    # -- routing visitors (EffectRewriter) ------------------------------------------

    def rewrite_send(self, effect: Send) -> Effect:
        return Send(effect.dst, Envelope(self._route_component, effect.payload))

    def rewrite_broadcast(self, effect: Broadcast) -> Effect:
        return Broadcast(Envelope(self._route_component, effect.payload))

    def rewrite_service_call(self, effect: ServiceCall) -> Effect:
        return effect.pushed(self._route_component)

    def rewrite_deliver(self, effect: Deliver) -> list[Effect]:
        return self.on_child_output(self._route_component, effect)

    def rewrite_decide(self, effect: Decide) -> list[Effect]:
        return self.on_child_output(self._route_component, effect)

    # -- message routing -----------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if isinstance(payload, Envelope):
            child = self._children.get(payload.component)
            if child is None:
                return [self.log("unknown-component", component=payload.component)]
            return self.child_call(
                payload.component, child.on_message(sender, payload.payload)
            )
        return self.on_own_message(sender, payload)

    # -- hooks for subclasses ---------------------------------------------------------

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        """Handle a payload addressed to the composite itself."""
        return [self.log("unexpected-payload", payload=repr(payload))]

    def on_child_output(self, name: str, effect: Effect) -> list[Effect]:
        """React to an upcall (``Deliver``/``Decide``) from child ``name``.

        The returned effects are post-processed like any parent effects —
        wrap further child calls with :meth:`child_call` as usual.
        """
        return []
