"""Effects — the output vocabulary of sans-IO protocol state machines.

Protocols in this library never touch a socket or an event loop: every
handler returns a list of :class:`Effect` values describing what should
happen (send a message, decide a value, call a trusted harness service,
emit a trace record).  An *engine* — the deterministic simulator in
:mod:`repro.sim`, the model checker in :mod:`repro.mc` or a socket node in
:mod:`repro.net` — interprets the effects.

Keeping protocols pure state machines gives us deterministic replay,
adversarial schedulers, and causal step accounting for free, and lets the
exact same protocol code run on every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..types import DecisionKind, ProcessId, Value, slot_init
from ..codec.schema import wire_record

#: Pseudo sender id used when a trusted harness service delivers a payload.
SERVICE_SENDER: ProcessId = -1


class Effect:
    """Marker base class for all effects."""

    __slots__ = ()


@slot_init
@dataclass(frozen=True, slots=True)
class Envelope:
    """A child component's payload, tagged with the component name.

    Part of the wire vocabulary: composite protocols wrap each child's
    messages in an envelope naming the child, and the runtimes wrap service
    replies the same way (see :class:`ServiceCall.reply_path`).  Lives here
    rather than in :mod:`repro.runtime.composite` so the effect interpreter
    (:mod:`repro.engine.interpreter`) needs no import from the composition
    layer; :mod:`repro.runtime.composite` re-exports it.
    """

    component: str
    payload: Any


@slot_init
@dataclass(frozen=True, slots=True)
class Send(Effect):
    """Unicast ``payload`` to process ``dst`` over the reliable link."""

    dst: ProcessId
    payload: Any


@slot_init
@dataclass(frozen=True, slots=True)
class Broadcast(Effect):
    """Send ``payload`` to every process, the sender included.

    The paper's "send to all processes" includes the sender; the runtime
    delivers the self-copy with zero network delay but through the normal
    delivery path, so threshold counting stays uniform.
    """

    payload: Any


@dataclass(frozen=True, slots=True)
class Decide(Effect):
    """Terminal output of a consensus protocol instance."""

    value: Value
    kind: DecisionKind


@wire_record(tag=12)
@dataclass(frozen=True, slots=True)
class Deliver(Effect):
    """Upcall from a sub-protocol to its parent (never leaves the process).

    Examples: IDB's ``Id-Receive`` event, the underlying consensus'
    ``UC_decide``.  The ``tag`` names the event, ``sender`` identifies the
    origin process where meaningful (e.g. the broadcast source).
    """

    tag: str
    sender: ProcessId
    value: Any


@wire_record(tag=11)
@dataclass(frozen=True, slots=True)
class ServiceCall(Effect):
    """Invoke a trusted harness service (e.g. the oracle underlying
    consensus of §2.2, which the paper assumes as an abstraction).

    Attributes:
        service: registered service name.
        payload: request payload.
        reply_path: component path (outermost first) that the runtime wraps
            the reply in, so composite protocols receive replies addressed
            to the right child.  Filled in automatically by
            :meth:`repro.runtime.composite.CompositeProtocol.child_call`.
    """

    service: str
    payload: Any
    reply_path: tuple[str, ...] = field(default=())

    def pushed(self, component: str) -> "ServiceCall":
        """Return a copy whose reply will be routed one component deeper."""
        return ServiceCall(self.service, self.payload, (component, *self.reply_path))


@dataclass(frozen=True, slots=True)
class Log(Effect):
    """Structured trace record (collected by the runtime when enabled).

    Unlike the wire-effect dataclasses, ``data`` is a ``dict``, which the
    generated ``__hash__`` would choke on; the explicit hash below folds the
    *sorted* items so two logs built from differently-ordered kwargs hash
    (and compare) identically — state fingerprints must not depend on dict
    insertion order.
    """

    event: str
    data: dict[str, Any] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log):
            return NotImplemented
        return self.event == other.event and self.data == other.data

    def __hash__(self) -> int:
        return hash(
            (self.event, tuple(sorted((k, repr(v)) for k, v in self.data.items())))
        )


def logs(effects: list[Effect]) -> list[Log]:
    """Extract the :class:`Log` effects from an effect list (test helper)."""
    return [e for e in effects if isinstance(e, Log)]
