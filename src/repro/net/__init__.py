"""``repro.net`` — the real-socket execution engine.

Every other backend (``sim``, ``sync``, ``mc``) delivers
messages in-memory; this package runs each consensus node as its own OS
process and ships every payload through a kernel socket, so the one-step
fast path races against *genuine* network nondeterminism — scheduler
jitter, socket buffering, real reordering — instead of a simulated clock.

Layout:

* :mod:`repro.net.wire` — length-prefixed, versioned framing of binary-codec
  payloads (the wire protocol proper);
* :mod:`repro.net.node` — the worker process hosting one sans-IO
  :class:`~repro.runtime.protocol.Protocol` behind
  :class:`~repro.engine.interpreter.ExecutionPorts`, one socket per hub;
* :mod:`repro.net.cluster` — the hub data plane every hub runs
  (authenticated links, fault plan, delay heap, non-blocking bounded write
  queues) and, on it, the orchestrator: spawn, connect, collect, with
  deadlines and straggler kill.  Hub 0 keeps its books, and emits the
  typed :mod:`repro.engine.events` stream, through the same
  :class:`~repro.engine.run.Engine` ports as every in-process engine;
* :mod:`repro.net.faults` — link conditions (drop, delay, duplicate,
  reorder, cut) and the unannounced :class:`ProcessCrash` chaos spec.

Entry point: ``Scenario(..., engine="net")`` or ``python -m repro run
--engine net``.
"""

from .cluster import NetCluster, NetRunResult
from .faults import (
    CutAfter,
    DelayLink,
    DropLink,
    DuplicateLink,
    LinkFault,
    LinkPlan,
    ProcessCrash,
    ReorderLink,
)
from .wire import (
    WIRE_VERSION,
    FrameDecoder,
    FrameTooLarge,
    TruncatedStream,
    WireError,
    encode_frame,
)

__all__ = [
    "NetCluster",
    "NetRunResult",
    "LinkFault",
    "LinkPlan",
    "DropLink",
    "DelayLink",
    "DuplicateLink",
    "ReorderLink",
    "CutAfter",
    "ProcessCrash",
    "WIRE_VERSION",
    "FrameDecoder",
    "FrameTooLarge",
    "TruncatedStream",
    "WireError",
    "encode_frame",
]
