"""Mesh control-plane records: hub handshakes, relay, and hub telemetry.

These travel on *hub-facing* links — the orchestrator's control link to
each hub worker, peer hub↔hub links, and a remote ``repro hub`` process's
listener — never on node links, which speak only the :mod:`repro.net.wire`
vocabulary.  Registered in the codec schema under a fresh tag block
(56–60) so golden frames pin them byte-for-byte like every other record.

A link's first frame classifies it: nodes open with
:class:`~repro.net.wire.Hello`, hubs and the orchestrator open with
:class:`HubHello`.  The orchestrator's control link (``hub == CONTROL_
LINK``) doubles as the relay channel for frames whose owning hub has no
direct endpoint, and carries the lifecycle traffic — ``Start``/``Stop``
downstream, :class:`HubReady`/:class:`HubStats`/:class:`HubSaturated`
upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..codec.schema import wire_record
from ..types import ProcessId, slot_init

__all__ = [
    "CONTROL_LINK",
    "HubHello",
    "MsgRelay",
    "HubStats",
    "HubSaturated",
    "HubReady",
]

#: ``HubHello.hub`` value announcing the orchestrator's control link
#: (distinct from every real hub index; zigzag varints encode it fine).
CONTROL_LINK = -1


@wire_record(tag=56)
@dataclass(frozen=True, slots=True)
class HubHello:
    """First frame on a hub-facing link; identifies the dialing side.

    ``hub`` is the dialer's hub index — :data:`CONTROL_LINK` when the
    dialer is the orchestrator.  ``codec`` is pinned and unread, exactly
    like :attr:`~repro.net.wire.Hello.codec`."""

    hub: int
    codec: int = 0


@wire_record(tag=57, blobs=("payload",))
@slot_init
@dataclass(frozen=True, slots=True)
class MsgRelay:
    """Hub ↔ hub: one node→node message in flight to its owning hub.

    ``src`` is already link-authenticated by the hub that received the
    original :class:`~repro.net.wire.MsgSend` from the node — hubs trust
    each other (they are infrastructure we forked or the operator
    started), nodes are the Byzantine parties.  The payload is a blob
    field, so a relay hop splices the span without decoding it."""

    src: ProcessId
    dst: ProcessId
    payload: Any
    depth: int


@wire_record(tag=58)
@dataclass(frozen=True, slots=True)
class HubStats:
    """Hub → orchestrator: final per-hub counters, sent in reply to Stop.

    Folded into :class:`~repro.net.cluster.NetRunResult` —
    ``hub_frame_counts``/``hub_byte_counts`` per hub, totals into
    ``hub_frames``/``hub_bytes`` and the run stats."""

    hub: int
    frames: int
    bytes: int
    sent: int
    delivered: int
    relayed: int
    saturated: int


@wire_record(tag=59)
@dataclass(frozen=True, slots=True)
class HubSaturated:
    """Hub → orchestrator: the hub's ready queue crossed its high-water
    mark (latched per episode — see :class:`~repro.engine.events.
    HubSaturatedEvent`, which the orchestrator emits on receipt)."""

    hub: int
    depth: int
    high_water: int


@wire_record(tag=60)
@dataclass(frozen=True, slots=True)
class HubReady:
    """Hub → orchestrator: every expected node registered on this hub.

    The Start barrier: the orchestrator holds Start until all hubs report
    ready, so no node can race its peers' traffic ahead of a hub that has
    not finished its handshakes."""

    hub: int
    nodes: int
