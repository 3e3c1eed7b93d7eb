"""Mesh control-plane records: the hub handshake and hub telemetry.

These travel on the orchestrator's control link to each hub worker (a
forked one, or a remote ``repro hub`` process) — never on node links,
which speak only the :mod:`repro.net.wire` vocabulary.  Registered in the
codec schema under a fresh tag block (56–60) so golden frames pin them
byte-for-byte like every other record.

A link's first frame classifies it: nodes open with
:class:`~repro.net.wire.Hello`, the orchestrator opens with
``HubHello(CONTROL_LINK)``.  The control link carries the lifecycle
traffic — ``Stop`` downstream, :class:`HubReady`/:class:`HubStats`/
:class:`HubSaturated` and fault reports upstream.  Hubs never talk to
each other: every hub delivers the frames it receives, so
:class:`MsgRelay` is registered (its tag and layout are pinned) but no
hub sends it.
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
    """First frame on the orchestrator's control link to a data hub.

    ``hub`` must be :data:`CONTROL_LINK`; a hub drops a link announcing
    any other value, as it drops every unknown first frame.  ``codec`` is
    pinned and unread, exactly like :attr:`~repro.net.wire.Hello.codec`."""

    hub: int
    codec: int = 0


@wire_record(tag=57, blobs=("payload",))
@slot_init
@dataclass(frozen=True, slots=True)
class MsgRelay:
    """Unsent: one node→node message forwarded between hubs.

    No hub sends it and none accepts it — every hub delivers what it
    receives — so a ``src`` claim on a hub-facing link can no longer
    impersonate a node.  The record stays registered (tag 57, layout
    pinned by the golden frames and the drift table), like
    :class:`~repro.net.wire.MsgDeliver`."""

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
    ``hub_frames``/``hub_bytes`` and the run stats.  ``relayed`` keeps
    its pinned position and is always written as 0: no hub forwards a
    frame."""

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
