"""The unified fault plane: one pluggable fault spec for every backend.

A :class:`Fault` says how one faulty process misbehaves; a
:class:`FaultPlane` owns a scenario's full fault mapping — validation
against the system bound and the algorithm's failure model, construction
of the per-process behavior protocols, and fault activation
announcements on the structured event stream.

The protocol a fault builds *is* the fault, on every engine: the
discrete-event, lockstep and model-checking backends run it
in-process, and the socket engine runs it inside the faulty node's
worker.  Nothing re-declares, re-projects or re-enforces a fault
elsewhere; a :class:`~repro.net.faults.LinkPlan` is a transport condition
a caller passes, never a fault.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..errors import ConfigurationError
from ..runtime.protocol import Protocol
from ..types import ProcessId, SystemConfig, Value
from .events import EventSink, FaultEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..harness import AlgorithmSpec

#: builds an honest protocol instance for a given initial value.
HonestFactory = Callable[[Value], Protocol]

__all__ = [
    "HonestFactory",
    "Fault",
    "Silent",
    "Crash",
    "RoundCrash",
    "CrashRecover",
    "Equivocate",
    "Garbage",
    "Spoiler",
    "Collapse",
    "Saboteur",
    "Custom",
    "FaultPlane",
    "RestartPlan",
    "restart_plans",
]


class Fault(abc.ABC):
    """How one faulty process misbehaves in a scenario."""

    #: fault class for model compatibility checks.
    model: str = "byzantine"

    @abc.abstractmethod
    def build(
        self,
        pid: ProcessId,
        config: SystemConfig,
        make_honest: HonestFactory,
        value: Value,
        spec: "AlgorithmSpec",
    ) -> Protocol:
        """Construct the behavior protocol for process ``pid``."""

    def describe(self) -> str:
        """One-line description for :class:`~repro.engine.events.FaultEvent`."""
        return ""


class Silent(Fault):
    """Crashed from the start: never sends a message."""

    model = "crash"

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.adversary import SilentBehavior

        return SilentBehavior(pid, config)


class Crash(Fault):
    """Run honestly, then crash after ``budget`` point-to-point messages.

    ``budget`` between ``1`` and ``n − 1`` crashes mid-broadcast of the
    initial proposal.
    """

    model = "crash"

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ConfigurationError("Crash.budget must be non-negative")
        self.budget = budget

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.adversary import CrashBehavior

        return CrashBehavior(make_honest(value), self.budget)

    def describe(self) -> str:
        return f"budget={self.budget}"


class RoundCrash(Fault):
    """The synchronous model's crash (Table 1's Mostefaoui row, on
    ``engine="sync"``): run honestly, then crash in round ``round`` — that
    round's broadcast reaches only ``delivered_to`` (``None``: a subset the
    adversary draws from ``seed``), and the process is silent after it.
    Each message it no longer delivers reaches its receiver as ``⊥``, the
    round's timeout (see :class:`repro.byzantine.adversary.RoundCrashBehavior`).
    """

    model = "crash"

    def __init__(
        self, round: int, delivered_to: frozenset[ProcessId] | None = None, seed: int = 0
    ) -> None:
        if round < 1:
            raise ConfigurationError("RoundCrash.round counts from 1")
        self.round = round
        self.delivered_to = delivered_to
        self.seed = seed

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.adversary import RoundCrashBehavior

        reached = self.delivered_to
        if reached is None:
            rng = random.Random(self.seed * config.n + pid)
            reached = frozenset(rng.sample(range(config.n), rng.randint(0, config.n)))
        return RoundCrashBehavior(make_honest(value), self.round, reached)

    def describe(self) -> str:
        return f"round={self.round}"


class CrashRecover(Fault):
    """Crash at time ``at``, then (optionally) restart and rejoin.

    The crash-*recovery* fault class: unlike :class:`Crash`, which kills a
    process forever, the process comes back ``restart_after`` time units
    later with a freshly built protocol instance.  What the restarted
    instance remembers is the protocol's business — an in-memory protocol
    restarts amnesiac, a :class:`~repro.shard.service.ShardNode` with a
    :class:`~repro.durable.recovery.NodeDurability` replays its snapshot
    and WAL, then catches missed slots up from peers.

    Until the crash fires the process runs fully honestly, so ``build``
    simply returns the honest protocol; the *scheduling* of the kill and
    the relaunch is engine work (the sim queue's ``crash``/``restart``
    events, the net cluster's timed SIGKILL + re-fork), driven by the
    :class:`RestartPlan` projection below.

    Args:
        at: engine time of the kill (virtual seconds on the simulator,
            wall-clock seconds after Start on the net engine).
        restart_after: delay from kill to relaunch; ``None`` means the
            process stays down (pure timed crash-stop).
    """

    model = "crash"

    def __init__(self, at: float, restart_after: float | None = None) -> None:
        if at < 0:
            raise ConfigurationError("CrashRecover.at must be non-negative")
        if restart_after is not None and restart_after < 0:
            raise ConfigurationError(
                "CrashRecover.restart_after must be non-negative"
            )
        self.at = at
        self.restart_after = restart_after

    @property
    def recovers(self) -> bool:
        return self.restart_after is not None

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        return make_honest(value)

    def describe(self) -> str:
        if self.restart_after is None:
            return f"at={self.at}"
        return f"at={self.at} restart_after={self.restart_after}"


class Equivocate(Fault):
    """Two-faced: behave like an honest process proposing ``value_a`` to the
    processes in ``group_a`` and ``value_b`` to the rest (Figure 2's attack,
    consistently applied at every protocol layer).  ``group_a`` defaults
    to the even process ids."""

    def __init__(
        self, value_a: Value, value_b: Value, group_a: Sequence[ProcessId] | None = None
    ) -> None:
        self.value_a = value_a
        self.value_b = value_b
        self.group_a = None if group_a is None else frozenset(group_a)

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.adversary import TwoFacedBehavior

        group_a = self.group_a
        group_of = None if group_a is None else lambda dst: "a" if dst in group_a else "b"
        return TwoFacedBehavior(make_honest(self.value_a), make_honest(self.value_b), group_of)

    def describe(self) -> str:
        faces = f"faces=({self.value_a!r}, {self.value_b!r})"
        if self.group_a is None:
            return faces
        return f"{faces} group_a={sorted(self.group_a)}"


class Garbage(Fault):
    """Spray wire-shaped random payloads (robustness stressor)."""

    def __init__(
        self, values: Sequence[Value] = (0, 1, 2), fanout: int = 3, seed: int = 0
    ) -> None:
        self.values = list(values)
        self.fanout = fanout
        self.seed = seed

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.behaviors import RandomGarbageBehavior

        templates = list(spec.garbage_templates) or [value]
        return RandomGarbageBehavior(
            pid, config, templates, self.values, self.fanout, self.seed + pid
        )

    def describe(self) -> str:
        return f"fanout={self.fanout}"


class Spoiler(Fault):
    """Adaptive attack on the frequency conditions: observe the proposals,
    then vote for the runner-up value on both DEX layers (see
    :class:`repro.byzantine.targeted.SpoilerBehavior`)."""

    def __init__(self, fallback: Value, watch_threshold: int | None = None) -> None:
        self.fallback = fallback
        self.watch_threshold = watch_threshold

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.targeted import SpoilerBehavior

        return SpoilerBehavior(pid, config, self.fallback, self.watch_threshold)

    def describe(self) -> str:
        return f"fallback={self.fallback!r}"


class Collapse(Fault):
    """A priori gap collapser: immediately votes ``value`` on both DEX
    layers (see :class:`repro.byzantine.targeted.GapCollapser`)."""

    def __init__(self, value: Value) -> None:
        self.value = value

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.targeted import GapCollapser

        return GapCollapser(pid, config, self.value)

    def describe(self) -> str:
        return f"value={self.value!r}"


class Saboteur(Fault):
    """Poison the underlying consensus, then act honest: races an
    arbitrary ``UC_propose`` for ``uc_value`` before running the honest
    start code (see :class:`repro.byzantine.targeted.FallbackSaboteur`).
    Above the resilience bound this is provably harmless — which is
    exactly what scenarios deploying it are meant to confirm."""

    def __init__(self, uc_value: Value) -> None:
        self.uc_value = uc_value

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        from ..byzantine.targeted import FallbackSaboteur

        return FallbackSaboteur(make_honest(value), self.uc_value)

    def describe(self) -> str:
        return f"uc_value={self.uc_value!r}"


class Custom(Fault):
    """Escape hatch: any ``(pid, config, make_honest, value) -> Protocol``."""

    def __init__(self, factory: Callable[..., Protocol], model: str = "byzantine") -> None:
        self.factory = factory
        self.model = model

    def build(self, pid, config, make_honest, value, spec) -> Protocol:
        return self.factory(pid, config, make_honest, value)


class FaultPlane:
    """A scenario's validated fault mapping, applied uniformly everywhere.

    Args:
        config: system parameters (bounds the mapping's size by ``t``).
        faults: fault spec per faulty process id.
        failure_model: the deployed algorithm's failure model
            (``"byzantine"`` accepts every fault; ``"crash"`` rejects
            Byzantine ones — a crash-model algorithm run against a
            Byzantine adversary proves nothing).
        algorithm_name: used in error messages only.
    """

    def __init__(
        self,
        config: SystemConfig,
        faults: Mapping[ProcessId, Fault] | None = None,
        failure_model: str = "byzantine",
        algorithm_name: str = "<algorithm>",
    ) -> None:
        faults = dict(faults or {})
        if len(faults) > config.t:
            raise ConfigurationError(
                f"{len(faults)} faults exceed the declared bound t={config.t}"
            )
        for pid in faults:
            if pid not in range(config.n):
                raise ConfigurationError(
                    f"fault on p{pid} outside the process space of n={config.n}"
                )
        if failure_model == "crash":
            for pid, fault in faults.items():
                if fault.model != "crash":
                    raise ConfigurationError(
                        f"{algorithm_name} is a crash-model algorithm; fault "
                        f"{type(fault).__name__} on p{pid} is Byzantine"
                    )
        self.config = config
        self.faults = faults

    @property
    def faulty(self) -> frozenset[ProcessId]:
        return frozenset(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def get(self, pid: ProcessId) -> Fault | None:
        return self.faults.get(pid)

    def build(
        self,
        pid: ProcessId,
        make_honest: HonestFactory,
        value: Value,
        spec: "AlgorithmSpec",
    ) -> Protocol:
        """Build process ``pid``'s protocol: honest, or its fault's behavior."""
        fault = self.faults.get(pid)
        if fault is None:
            return make_honest(value)
        return fault.build(pid, self.config, make_honest, value, spec)

    def protocols(
        self, spec: "AlgorithmSpec", inputs: Sequence[Value], uc_factory, **options
    ) -> dict[ProcessId, Protocol]:
        """One protocol per process, honest ones from ``spec.make`` (given
        ``options``), faulty ones wrapped by their fault."""
        config = self.config
        return {
            pid: self.build(
                pid, lambda v, pid=pid: spec.make(pid, config, v, uc_factory, **options),
                inputs[pid], spec,
            )
            for pid in config.processes
        }

    def announce(self, sink: EventSink | None, time: float = 0.0) -> None:
        """Emit one :class:`FaultEvent` per configured fault."""
        if sink is None:
            return
        for pid in sorted(self.faults):
            fault = self.faults[pid]
            sink.emit(
                FaultEvent(time, pid, fault=type(fault).__name__, detail=fault.describe())
            )

    def recovering(self) -> frozenset[ProcessId]:
        """Processes that crash but come back (``CrashRecover`` with a
        restart) — engines wait for their decisions and agreement checks
        include them, unlike crash-stop faulty processes."""
        return frozenset(
            pid
            for pid, fault in self.faults.items()
            if isinstance(fault, CrashRecover) and fault.recovers
        )


class RestartPlan:
    """One process's kill/relaunch schedule, projected off the fault plane.

    Args:
        at: engine time of the kill.
        restart_after: kill-to-relaunch delay (``None`` = stays down).
        factory: zero-argument builder of the restarted protocol instance
            — called *at restart time* (in the restarted child process on
            the net engine), so a durable protocol scans its disk state
            inside the factory.
    """

    def __init__(
        self,
        at: float,
        restart_after: float | None,
        factory: Callable[[], Protocol],
    ) -> None:
        self.at = at
        self.restart_after = restart_after
        self.factory = factory


def restart_plans(
    plane: FaultPlane, factory_for: Callable[[ProcessId], Callable[[], Protocol]]
) -> dict[ProcessId, RestartPlan]:
    """The engine-facing restart schedule for a plane's ``CrashRecover``
    faults.  ``factory_for(pid)`` supplies the relaunch builder."""
    plans: dict[ProcessId, RestartPlan] = {}
    for pid, fault in plane.faults.items():
        if isinstance(fault, CrashRecover):
            plans[pid] = RestartPlan(fault.at, fault.restart_after, factory_for(pid))
    return plans
