"""The shared execution substrate behind every runner.

Four backends execute the same sans-IO protocols — the deterministic
discrete-event :class:`~repro.sim.runner.Simulation`, the lockstep
:class:`~repro.sim.synchronous.LockstepSimulation`, the model checker's
:class:`~repro.mc.state.McSystem` and the socket engine's hub 0,
:class:`~repro.net.cluster.NetCluster`.  This package owns what they share:

* :mod:`repro.engine.interpreter` — the single effect-interpretation code
  path (:func:`interpret` over the :class:`ExecutionPorts` interface) and
  the effect-rewriting path of the Byzantine wrappers
  (:class:`EffectRewriter`);
* :mod:`repro.engine.run` — the one set of books (:class:`Engine`) and the
  one result type (:class:`RunResult`) every engine keeps and returns;
* :mod:`repro.engine.faults` — the unified fault plane;
* :mod:`repro.engine.events` — the typed run-event stream every backend
  emits into pluggable sinks.

Import discipline: this package imports only :mod:`repro.runtime`,
:mod:`repro.types`, :mod:`repro.errors` and the leaf codec module
:mod:`repro.codec.binary` (for the ``Opaque`` span type the event stream
carries) at module scope — backends and behavior modules are imported
lazily where needed — so every backend can import the engine without
cycles.
"""

from .events import (
    DecideEvent,
    DeliverEvent,
    EventLog,
    EventSink,
    EventStats,
    FaultEvent,
    LogEvent,
    OutputEvent,
    RoundEvent,
    RunEvent,
    SendEvent,
    ServiceEvent,
    TeeSink,
    combine,
)
from .faults import (
    Collapse,
    Crash,
    Custom,
    Equivocate,
    Fault,
    FaultPlane,
    Garbage,
    Saboteur,
    Silent,
    Spoiler,
)
from .interpreter import (
    CensoringRewriter,
    EffectRewriter,
    ExecutionPorts,
    dispatch_service_call,
    expand_broadcasts,
    interpret,
)
from .run import Engine, RunResult, check_deployment

__all__ = [
    # interpreter
    "ExecutionPorts",
    "interpret",
    "dispatch_service_call",
    "expand_broadcasts",
    "EffectRewriter",
    "CensoringRewriter",
    # run
    "Engine",
    "RunResult",
    "check_deployment",
    # events
    "RunEvent",
    "SendEvent",
    "DeliverEvent",
    "DecideEvent",
    "OutputEvent",
    "ServiceEvent",
    "FaultEvent",
    "LogEvent",
    "RoundEvent",
    "EventSink",
    "EventLog",
    "EventStats",
    "TeeSink",
    "combine",
    # faults
    "Fault",
    "FaultPlane",
    "Silent",
    "Crash",
    "Equivocate",
    "Garbage",
    "Spoiler",
    "Collapse",
    "Saboteur",
    "Custom",
]
