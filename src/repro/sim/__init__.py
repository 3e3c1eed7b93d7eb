"""Deterministic discrete-event simulation of asynchronous Byzantine systems.

The simulator realises the paper's system model (§2.1): reliable
authenticated links, no bounds on relative speeds or delivery times (any
delay is schedulable), up to ``t`` arbitrary-behavior processes.  On top it
adds what a reproduction needs: determinism from a seed, adversarial
schedulers and causal step accounting.
"""

from ..engine.run import RunResult
from .events import Event, EventQueue
from .latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    PerLinkLatency,
    UniformLatency,
)
from .runner import DEFAULT_MAX_EVENTS, Simulation
from .scheduler import (
    ComposedScheduler,
    DelayMatching,
    DelaySenders,
    DeliveryScheduler,
    FairScheduler,
    PartitionScheduler,
    RandomJitterScheduler,
)

__all__ = [
    "Event",
    "EventQueue",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "PerLinkLatency",
    "Simulation",
    "RunResult",
    "DEFAULT_MAX_EVENTS",
    "DeliveryScheduler",
    "FairScheduler",
    "DelaySenders",
    "DelayMatching",
    "RandomJitterScheduler",
    "ComposedScheduler",
    "PartitionScheduler",
]
