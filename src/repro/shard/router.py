"""Key→shard routing and the ``(shard, slot)`` instance multiplexer.

A sharded service runs one independent replicated log per shard; every
shard advances through consecutive consensus slots.  Two pieces make that
work over a *single* transport:

* :func:`shard_of` — the deterministic key→shard mapping.  It hashes with
  ``zlib.crc32``, never ``hash()``: the builtin string hash is salted per
  process (``PYTHONHASHSEED``), so forked node workers on the ``net``
  engine would disagree about which shard owns a key.
* :class:`ShardMultiplexer` — a composite protocol hosting one consensus
  child per *instance* ``(shard, slot)``.  Children are named
  ``s<shard>.<slot>``, so every message a child sends travels inside an
  :class:`~repro.runtime.effects.Envelope` tagged with its instance — the
  shard-tagged frames the transport multiplexes.  On the ``net`` engine
  this means many instances share one hub connection per node instead of
  one cluster per instance.

It is the one multiplexer: the sharded replica
(:class:`repro.shard.service.ShardNode`) *is* one — it subclasses it and
takes each instance's decision through
:meth:`ShardMultiplexer.on_instance_decided` — so an instance message is
``Envelope("s<shard>.<slot>", …)`` at the top level of the wire, one
composite level above the instance's own children (DEX's ``idb``/``uc``).
An instance comes into existence two ways — locally via
:meth:`ShardMultiplexer.propose`, or remotely when the first envelope for
an unseen instance arrives, in which case it is created *without*
proposing (a lagging replica participating in a round it has not reached).
It goes out of existence one way: decided and ``inert`` (nothing that
arrives can make it send, deliver or decide again), it is dropped by the
next :meth:`ShardMultiplexer._sweep` of its shard, and its late envelopes
with it — a replica holds its open slots, not its history.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Any, Callable

from ..codec.binary import (
    _COMPONENT_INSTANCE,
    _COMPONENT_STR,
    TAG_ENVELOPE,
    CodecError,
    Opaque,
    _read_varint,
)
from ..codec.schema import instance_name, parse_instance
from ..errors import ConfigurationError
from ..runtime.composite import CompositeProtocol, Envelope
from ..runtime.effects import Decide, Deliver, Effect
from ..runtime.protocol import Protocol
from ..types import DecisionKind, ProcessId, SystemConfig, Value

__all__ = [
    "INSTANCE_DECIDED_TAG",
    "UNATTRIBUTED",
    "shard_of",
    "hub_of",
    "shard_of_payload",
    "peek_shard",
    "instance_name",
    "parse_instance",
    "SlotSet",
    "ShardMultiplexer",
]

#: Upcall tag of a per-instance decision surfaced by the multiplexer.
INSTANCE_DECIDED_TAG = "shard-slot-decided"

#: Shard index meaning "no shard tag found": top-level control messages and
#: foreign envelopes.  Metrics book them apart; a mesh pins them to hub 0.
UNATTRIBUTED = -1

#: Decided-but-live instances one :meth:`ShardMultiplexer._sweep` examines.
#: A healthy shard has two or three at a time, so all of them are looked at.
SWEEP_LIMIT = 8

#: builds the consensus instance for one ``(shard, slot)``:
#: ``(shard, slot, proposal) -> Protocol``.
ShardInstanceFactory = Callable[[int, int, Value], Protocol]


def shard_of(key: Any, shards: int) -> int:
    """The shard owning ``key`` — stable across processes and machines.

    ``crc32`` of the key's string form, reduced mod ``shards``; the builtin
    ``hash()`` is process-salted for strings and would split a forked
    cluster's keyspace inconsistently.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    return zlib.crc32(str(key).encode("utf-8")) % shards


def hub_of(shard: int, hubs: int) -> int:
    """The hub group owning ``shard`` in a parallel-hub mesh.

    Round-robin (``shard % hubs``): every hub carries the same number of
    shards (±1), and with one hub the answer is always hub 0 — the star
    topology is the degenerate case.  Nodes, hubs and the metrics layer
    must all agree on this mapping, so it lives here next to
    :func:`shard_of`.
    """
    if hubs < 1:
        raise ValueError("need at least one hub")
    if shard < 0:
        raise ValueError("shard must be non-negative")
    return shard % hubs


def shard_of_payload(payload: Any, shards: int) -> int:
    """Shard owning one message payload, or :data:`UNATTRIBUTED`.

    The one attribution function — mesh nodes and hubs steer by it, the
    metrics layer charges sends and delivers by it.  Every frame a consensus
    instance sends is ``Envelope("s<shard>.<slot>", …)``, so the first
    component normally answers; foreign components in front of it are
    stepped over, and the first instance component naming a shard in
    ``[0, shards)`` decides.  An :class:`~repro.codec.Opaque` span is peeked
    (:func:`peek_shard`), never materialized, and answers exactly what its
    decoded object would.
    """
    if type(payload) is Opaque:
        data = payload.data
        # What every instance message looks like — ``TAG_ENVELOPE``, instance
        # component, a one-byte shard in range — is answered from three
        # bytes; anything else is walked.
        if (
            len(data) > 2
            and data[0] == TAG_ENVELOPE
            and data[1] == _COMPONENT_INSTANCE
            and data[2] < shards
            and data[2] < 0x80
        ):
            return data[2]
        return peek_shard(data, shards)
    seen = 0
    while isinstance(payload, Envelope) and seen < 8:
        key = parse_instance(payload.component)
        if key is not None and 0 <= key[0] < shards:
            return key[0]
        payload = payload.payload
        seen += 1
    return UNATTRIBUTED


def peek_shard(data: bytes, shards: int) -> int:
    """Read the shard tag off a raw binary-codec span without decoding.

    The span of an enveloped payload starts with ``TAG_ENVELOPE`` and its
    component; an instance component (``s<shard>.<slot>``) is two varints
    right there in the header, so attribution costs a few byte reads instead
    of a payload decode.  Other components (interned table names like
    ``"idb"``, raw strings, out-of-range shards) are stepped over and the
    nested payload is peeked, mirroring the envelope-chain walk on
    materialized values.  Anything unrecognized — including a truncated or
    hostile span — answers :data:`UNATTRIBUTED`, never raises.
    """
    pos = 0
    try:
        for _ in range(8):
            if pos >= len(data) or data[pos] != TAG_ENVELOPE:
                return UNATTRIBUTED
            pos += 1
            kind = data[pos]
            pos += 1
            if kind == _COMPONENT_INSTANCE:
                shard, pos = _read_varint(data, pos)
                if 0 <= shard < shards:
                    return shard
                _, pos = _read_varint(data, pos)  # foreign shard: step over the slot
            elif kind == _COMPONENT_STR:
                length, pos = _read_varint(data, pos)
                key = parse_instance(data[pos : pos + length].decode("utf-8", "replace"))
                if key is not None and 0 <= key[0] < shards:
                    return key[0]
                pos += length
            # else a table component: the kind byte was the whole encoding
    except (IndexError, CodecError):
        return UNATTRIBUTED
    return UNATTRIBUTED


class SlotSet:
    """An exact set of slot numbers held as a ``floor`` — every slot in
    ``[0, floor)`` is a member — plus the few members above it, so a
    shard's books cost its open window, not its history."""

    __slots__ = ("floor", "_above")

    def __init__(self) -> None:
        self.floor = 0
        self._above: set[int] = set()

    def __contains__(self, slot: int) -> bool:
        return 0 <= slot < self.floor or slot in self._above

    def add(self, slot: int) -> None:
        if slot != self.floor:
            if not 0 <= slot < self.floor:
                self._above.add(slot)
            return
        above, floor = self._above, slot + 1
        while floor in above:
            above.remove(floor)
            floor += 1
        self.floor = floor


class ShardMultiplexer(CompositeProtocol):
    """Hosts one consensus child per ``(shard, slot)``, created lazily.

    Subclasses react to a decided instance by overriding
    :meth:`on_instance_decided`; used bare, it surfaces each decision as an
    :data:`INSTANCE_DECIDED_TAG` upcall.

    Args:
        process_id: hosting replica.
        config: system parameters (shared by every instance).
        make_instance: per-instance consensus factory.
        shards: number of shards — instance keys outside ``[0, shards)``
            are rejected (Byzantine shard-number inflation guard).
        max_slots: ceiling on slot numbers (slot-number inflation guard):
            envelopes at or past it are refused, and :meth:`propose` there
            raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        make_instance: ShardInstanceFactory,
        shards: int,
        max_slots: int = 10_000,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        super().__init__(process_id, config)
        self._make_instance = make_instance
        self.shards = shards
        self._max_slots = max_slots
        # per shard, the slots proposed here and the slots decided — a
        # decided slot with no child is a retired instance (:meth:`_sweep`)
        self._proposed = [SlotSet() for _ in range(shards)]
        self.decided = [SlotSet() for _ in range(shards)]
        # per shard, the decided slots whose instance is still a child
        self._lingering: list[deque[int]] = [deque() for _ in range(shards)]

    # -- instance management ---------------------------------------------------------

    def _instance_of(self, component: str) -> tuple[int, int] | None:
        key = parse_instance(component)
        if key is None:
            return None
        shard, slot = key
        if not 0 <= shard < self.shards:
            return None  # Byzantine shard-number inflation guard
        if not 0 <= slot < self._max_slots:
            return None  # Byzantine slot-number inflation guard
        return key

    def _ensure(self, shard: int, slot: int) -> Protocol:
        name = instance_name(shard, slot)
        if name not in self._children:
            self.add_child(name, self._make_instance(shard, slot, None))
        return self.child(name)

    def propose(self, shard: int, slot: int, value: Value) -> list[Effect]:
        """Start this replica's participation in instance ``(shard, slot)``.

        Raises :class:`~repro.errors.ConfigurationError` at the slot
        ceiling: peers refuse that instance's traffic (:meth:`_instance_of`),
        so opening it would stall the shard in silence.
        """
        if not 0 <= shard < self.shards:
            raise ConfigurationError(f"no shard {shard}: shards={self.shards}")
        if slot in self._proposed[shard]:
            return []
        if slot >= self._max_slots:
            raise ConfigurationError(
                f"shard {shard} reached slot {slot}: the multiplexer's "
                f"ceiling is max_slots={self._max_slots}"
            )
        self._proposed[shard].add(slot)
        name = instance_name(shard, slot)
        if name in self._children:
            node = self.child(name)
            node.proposal = value  # created lazily by a remote message
        else:
            node = self.add_child(name, self._make_instance(shard, slot, value))
        return self.child_call(name, node.on_start())

    # -- routing ---------------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        """Route an instance envelope in one lookup; anything else is the
        multiplexer's own (:meth:`on_own_message`).

        An envelope whose payload is not itself an envelope is an
        instance's own top-level message (DEX line 3, ``P-Send``): it is
        shown to :meth:`on_instance_message` first, and the effects that
        hook returns go in front of the routed ones.
        """
        if type(payload) is not Envelope and not isinstance(payload, Envelope):
            return self.on_own_message(sender, payload)
        name = payload.component
        inner = payload.payload
        head = None
        if type(inner) is not Envelope and not isinstance(inner, Envelope):
            head = self.on_instance_message(sender, name)
        child = self._children.get(name)
        if child is None:
            effects = self._first_envelope(sender, name, inner)
        else:
            effects = child.on_message(sender, inner)
            if effects:
                effects = self.child_call(name, effects)
        if head:
            head.extend(effects)
            return head
        return effects

    def _first_envelope(self, sender: ProcessId, name: str, inner: Any) -> list[Effect]:
        """An envelope naming no child.  A child exists under a name only
        if that name was validated, so only here are the guards run: a new
        valid instance gets its child (passive — no proposal) and the
        payload; a retired one — decided, no child — is dropped (being
        inert, it would have answered with nothing).  Anything else is an
        unknown component, a non-canonical spelling of a valid key
        (``"s01.2"``) included: that one opens the canonical child
        (``"s1.2"``) but is routed nowhere."""
        key = self._instance_of(name)
        if key is not None:
            if key[1] in self.decided[key[0]]:
                return []
            self._ensure(*key)
            child = self._children.get(name)
            if child is not None:
                effects = child.on_message(sender, inner)
                return self.child_call(name, effects) if effects else effects
        return [self.log("unknown-component", component=name)]

    def on_instance_message(self, sender: ProcessId, component: str) -> list[Effect]:
        """Hook: ``sender``'s envelope for ``component`` carries the
        instance's own top-level message, about to be routed.  Effects
        returned here precede the routed ones; the default has none."""
        return []

    def on_child_output(self, name: str, effect: Effect) -> list[Effect]:
        if not isinstance(effect, Decide):
            return []
        key = self._instance_of(name)
        if key is None or key[1] in self.decided[key[0]]:
            return []
        self.decided[key[0]].add(key[1])
        self._lingering[key[0]].append(key[1])
        self._sweep(key[0])
        return self.on_instance_decided(*key, effect.value, effect.kind)

    def _sweep(self, shard: int) -> None:
        """Retire the shard's decided instances that have become inert.

        An instance that declares itself ``inert`` answers every further
        message with nothing, so deleting it — and dropping its late
        envelopes in :meth:`on_message` instead of re-creating it as a
        fresh passive instance that would echo a second time — changes no
        message this replica sends.  One that does not (an origin's
        ``init`` is still missing; a UC child with traffic of its own)
        stays, and is looked at again when the shard next decides — at most
        :data:`SWEEP_LIMIT` a time, taking turns, so a shard pinned by a
        silent origin pays a constant per decision, not its history.
        """
        lingering = self._lingering[shard]
        for _ in range(min(len(lingering), SWEEP_LIMIT)):
            slot = lingering.popleft()
            name = instance_name(shard, slot)
            if self._children[name].inert:
                del self._children[name]
            else:
                lingering.append(slot)

    def on_instance_decided(
        self, shard: int, slot: int, value: Value, kind: DecisionKind
    ) -> list[Effect]:
        """Instance ``(shard, slot)`` decided — called once per instance."""
        return [
            Deliver(INSTANCE_DECIDED_TAG, self.process_id, (shard, slot, value, kind))
        ]
