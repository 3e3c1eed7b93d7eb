"""Composite routing as an effect rewrite — the tests' reference.

This is child routing as it stood before it became one typed pass
(``repro.runtime.composite``):

* :class:`CompositeProtocol` was an
  :class:`~repro.engine.interpreter.EffectRewriter` — a child's effects
  went through ``rewrite_effects`` → ``_dispatch`` → a ``rewrite_*``
  visitor → ``_emit``, the component being routed held in
  ``_route_component``;
* ``ShardMultiplexer.on_message`` ran its guards on an instance's first
  envelope and deferred to the composite's ``on_message``;
* ``ShardNode.on_message`` ran the rejoin evidence rule on a top-level
  instance payload before deferring to the multiplexer's.

It is kept here, test-only, as the specification the library's routing is
checked against — the same event stream, event for event, and the same
``RunResult`` (``tests/test_composite_equiv.py``).  :func:`reference_routing`
installs it in place of the library's routing for the duration of a
``with`` block.  Do not optimise it and do not import it from ``src/``.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator
from unittest import mock

from repro.engine.interpreter import EffectRewriter
from repro.runtime import composite as _composite
from repro.runtime.effects import Broadcast, Decide, Deliver, Effect, Envelope, Send, ServiceCall
from repro.runtime.protocol import Protocol
from repro.shard.router import ShardMultiplexer, parse_instance
from repro.shard.service import ShardNode
from repro.types import ProcessId


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


def multiplexer_on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
    """``ShardMultiplexer.on_message``: the guards, then the composite's."""
    # A child exists under a name only if that name was validated, so
    # all but an instance's first envelope skip the guards.
    if isinstance(payload, Envelope) and payload.component not in self._children:
        key = self._instance_of(payload.component)
        if key is not None:
            if key in self.decided:
                return []  # retired: inert, so it would have answered this
            self._ensure(*key)
    return CompositeProtocol.on_message(self, sender, payload)


def node_on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
    """``ShardNode.on_message``: the rejoin evidence rule, then the
    multiplexer's routing."""
    if (
        self.durability is not None
        and isinstance(payload, Envelope)
        and not isinstance(payload.payload, Envelope)
    ):
        key = parse_instance(payload.component)
        if key is not None and 0 <= key[0] < self.shards:
            shard, slot = key
            pair = (sender, shard)
            if slot >= self._slot[shard]:
                self._decided_served.pop(pair, None)
                self._late.pop(pair, None)
            elif pair in self._decided_served:
                effects = self._offer_decided(sender, shard, slot)
                effects.extend(multiplexer_on_message(self, sender, payload))
                return effects
            elif slot > self._late.get(pair, -1):
                self._late[pair] = slot
    return multiplexer_on_message(self, sender, payload)


#: what the reference puts on the library's composite, which is no
#: rewriter any more: the rewriter's members, then the reference's routing
#: over them, and the routed component's initial value.
ROUTING_MEMBERS: dict[str, Any] = {
    **{k: v for k, v in vars(EffectRewriter).items() if not k.startswith("__")},
    **{
        k: v
        for k, v in vars(CompositeProtocol).items()
        if k in ("child_call", "on_message") or k.startswith("rewrite_")
    },
    "_route_component": None,
}


@contextlib.contextmanager
def reference_routing() -> Iterator[None]:
    """Route every composite, multiplexer and shard node the reference way
    until the block exits."""
    patches = [(_composite.CompositeProtocol, k, v) for k, v in ROUTING_MEMBERS.items()]
    patches += [
        (ShardMultiplexer, "on_message", multiplexer_on_message),
        (ShardNode, "on_message", node_on_message),
    ]
    with contextlib.ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value, create=True))
        yield
