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

from ..types import ProcessId
from .effects import Broadcast, Decide, Deliver, Effect, Envelope, Send, ServiceCall
from .protocol import Protocol

__all__ = ["CompositeProtocol", "Envelope"]


class CompositeProtocol(Protocol):
    """A protocol that hosts named child protocols.

    Subclasses register children with :meth:`add_child`, drive them by
    passing the effects of child method calls through :meth:`child_call`,
    and receive their upcalls in :meth:`on_child_output`.  Messages arriving
    in an :class:`Envelope` are routed to the named child automatically by
    :meth:`on_message`; everything else goes to :meth:`on_own_message`.

    Routing keeps no state on the composite: the component being routed is
    an argument of :meth:`child_call`, so snapshots taken by the model
    checker restore cleanly and re-entrant routing (a child upcall driving
    another child) cannot corrupt the outer call.
    """

    def __init__(self, process_id: ProcessId, config) -> None:
        super().__init__(process_id, config)
        self._children: dict[str, Protocol] = {}

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

        One pass: ``Send``/``Broadcast`` payloads are wrapped in an envelope
        for ``name``; ``ServiceCall`` replies are routed back to ``name``;
        ``Deliver``/``Decide`` upcalls are handed to
        :meth:`on_child_output`, whose effects are spliced in (they may
        drive other children, through their own ``child_call``); anything
        else (``Log``) is kept.  The routed effects are matched
        on their exact type first — a child's traffic is almost all
        ``Broadcast`` — and everything else, a subclass of an effect type
        included, falls through to the ``isinstance`` checks, so a
        subclass routes like its base.
        """
        out: list[Effect] = []
        for effect in effects:
            kind = type(effect)
            if kind is Broadcast:
                out.append(Broadcast(Envelope(name, effect.payload)))
            elif kind is Send:
                out.append(Send(effect.dst, Envelope(name, effect.payload)))
            elif kind is Deliver or kind is Decide:
                out.extend(self.on_child_output(name, effect))
            elif isinstance(effect, Send):
                out.append(Send(effect.dst, Envelope(name, effect.payload)))
            elif isinstance(effect, Broadcast):
                out.append(Broadcast(Envelope(name, effect.payload)))
            elif isinstance(effect, (Decide, Deliver)):
                out.extend(self.on_child_output(name, effect))
            elif isinstance(effect, ServiceCall):
                out.append(effect.pushed(name))
            else:
                out.append(effect)
        return out

    # -- message routing -----------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if type(payload) is Envelope or isinstance(payload, Envelope):
            name = payload.component
            child = self._children.get(name)
            if child is None:
                return [self.log("unknown-component", component=name)]
            effects = child.on_message(sender, payload.payload)
            return self.child_call(name, effects) if effects else effects
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
