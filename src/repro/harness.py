"""Experiment harness: declarative construction of consensus runs.

Tests, benchmarks and examples all describe a run the same way — *which
algorithm*, *which input vector*, *which faults*, *which network*, *which
execution engine* — and get back a fully wired run.  The harness owns the
fiddly parts: building one protocol instance per process, wrapping the
faulty ones through the :class:`~repro.engine.faults.FaultPlane`, choosing
the underlying consensus (the paper's oracle abstraction or the real
RBC+ABA+ACS stack) and registering its services.

The fault vocabulary (:class:`Fault`, :class:`Silent`, :class:`Crash`,
:class:`Equivocate`, …) lives in :mod:`repro.engine.faults` and is
re-exported here for compatibility.

Example::

    from repro.harness import Scenario, dex_freq, Equivocate

    result = Scenario(
        dex_freq(),
        inputs=[1, 1, 1, 1, 1, 2, 1],   # n = 7 ⇒ t = 1 for the freq pair
        faults={6: Equivocate(1, 2)},
        seed=42,
    ).run()
    assert result.agreement_holds()

``Scenario(..., engine="sync")`` (or ``"mc"``, ``"net"``) runs the same
deployment on a different backend — see :meth:`Scenario.run`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from .broadcast.idb import IdbInit
from .conditions.frequency import FrequencyPair
from .conditions.privileged import PrivilegedPair
from .core.dex import DexConsensus, DexProposal
from .engine.events import EventSink
from .engine.faults import (
    Collapse,
    Crash,
    CrashRecover,
    Custom,
    Equivocate,
    Fault,
    FaultPlane,
    Garbage,
    HonestFactory,
    RestartPlan,
    RoundCrash,
    Saboteur,
    Silent,
    Spoiler,
    restart_plans,
)
from .engine.run import RunResult
from .errors import ConfigurationError
from .runtime.composite import Envelope
from .runtime.effects import Deliver
from .runtime.protocol import Protocol
from .runtime.services import Service
from .types import Decision, ProcessId, RunStats, SystemConfig, Value
from .underlying.oracle import SERVICE_NAME, OracleConsensus, OracleService

if TYPE_CHECKING:
    from .sim.latency import LatencyModel
    from .sim.runner import Simulation
    from .sim.scheduler import DeliveryScheduler

__all__ = [
    "AlgorithmSpec",
    "Deployment",
    "ENGINES",
    "HonestFactory",
    "Scenario",
    "run_once",
    # algorithm registry
    "dex_freq",
    "dex_prv",
    "bosco_weak",
    "bosco_strong",
    "izumi",
    "brasileiro",
    "twostep",
    "sync_onestep",
    "all_algorithms",
    # fault vocabulary (re-exported from repro.engine.faults)
    "Fault",
    "FaultPlane",
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
    "RestartPlan",
    "restart_plans",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the harness needs to deploy one algorithm.

    Attributes:
        name: short identifier used in reports (e.g. ``"dex-freq"``).
        make: builds the per-process protocol:
            ``make(pid, config, value, uc_factory)``.
        required_ratio: resilience as a multiplier (``n > ratio · t``).
        failure_model: ``"byzantine"`` or ``"crash"`` — the strongest fault
            class the algorithm's safety argument covers; the harness
            rejects stronger injected faults.
        garbage_templates: wire-shaped payload examples for the garbage
            adversary.
        steps_before_uc: communication steps the algorithm spends before
            it hands a value to the underlying consensus — a fallback
            decision costs these plus the UC's steps (DEX 2, BOSCO and the
            crash-model converters 1, the two-step reference 0).
        table1: the algorithm's row of the paper's Table 1 (used by the
            table-regeneration bench).
    """

    name: str
    make: Callable[..., Protocol]
    required_ratio: int
    failure_model: str = "byzantine"
    garbage_templates: tuple[Any, ...] = ()
    steps_before_uc: int = 2
    table1: dict[str, str] = field(default_factory=dict)

    def max_t(self, n: int) -> int:
        """Largest ``t`` this algorithm tolerates with ``n`` processes."""
        return max((n - 1) // self.required_ratio, 0)


# -- algorithm registry ------------------------------------------------------------


def dex_freq() -> AlgorithmSpec:
    """DEX instantiated with the frequency-based pair (``n > 6t``)."""
    return AlgorithmSpec(
        name="dex-freq",
        make=lambda pid, config, value, uc_factory: DexConsensus(
            pid, config, FrequencyPair(config.n, config.t), value, uc_factory
        ),
        required_ratio=6,
        garbage_templates=(DexProposal(0), Envelope("idb", IdbInit(0))),
        table1={
            "system": "Asyn.",
            "failures": "Byzan.",
            "processes": "6t+1",
            "one_step": "Condition-Based (adaptive)",
            "two_step": "Condition-Based (adaptive)",
        },
    )


def dex_prv(privileged: Value = 1) -> AlgorithmSpec:
    """DEX instantiated with the privileged-value pair (``n > 5t``)."""
    return AlgorithmSpec(
        name="dex-prv",
        make=lambda pid, config, value, uc_factory: DexConsensus(
            pid,
            config,
            PrivilegedPair(config.n, config.t, privileged),
            value,
            uc_factory,
        ),
        required_ratio=5,
        garbage_templates=(DexProposal(0), Envelope("idb", IdbInit(0))),
        table1={
            "system": "Asyn.",
            "failures": "Byzan.",
            "processes": "5t+1",
            "one_step": "Condition-Based (privileged value)",
            "two_step": "Condition-Based (privileged value)",
        },
    )


def _bosco(variant: str, one_step: str) -> AlgorithmSpec:
    from .baselines.bosco import BoscoConsensus, BoscoVote

    ratio = BoscoConsensus.RATIOS[variant]
    return AlgorithmSpec(
        name=f"bosco-{variant}",
        make=lambda pid, config, value, uc_factory: BoscoConsensus(
            pid, config, value, variant, uc_factory
        ),
        required_ratio=ratio,
        garbage_templates=(BoscoVote(0),),
        steps_before_uc=1,
        table1={
            "system": "Asyn.",
            "failures": "Byzan.",
            "processes": f"{ratio}t+1 ({variant.capitalize()})",
            "one_step": one_step,
            "two_step": "—",
        },
    )


def bosco_weak() -> AlgorithmSpec:
    """BOSCO, weakly one-step (``n > 5t``)."""
    return _bosco("weak", "Agreed proposals, no failures")


def bosco_strong() -> AlgorithmSpec:
    """BOSCO, strongly one-step (``n > 7t``)."""
    return _bosco("strong", "Agreed proposals of correct processes")


def izumi() -> AlgorithmSpec:
    """Adaptive crash-model one-step consensus (Izumi et al. [8] row)."""
    from .baselines.crash_onestep import CrashValue, IzumiCrashConsensus

    return AlgorithmSpec(
        name="izumi",
        make=IzumiCrashConsensus,
        required_ratio=3,
        failure_model="crash",
        garbage_templates=(CrashValue(0),),
        steps_before_uc=1,
        table1={
            "system": "Asyn.",
            "failures": "Crash",
            "processes": "3t+1",
            "one_step": "Condition-Based (adaptive)",
            "two_step": "—",
        },
    )


def brasileiro() -> AlgorithmSpec:
    """Brasileiro et al.'s one-step converter (crash model, ``n > 3t``)."""
    from .baselines.brasileiro import BrasileiroConsensus, BrasileiroValue

    return AlgorithmSpec(
        name="brasileiro",
        make=BrasileiroConsensus,
        required_ratio=3,
        failure_model="crash",
        garbage_templates=(BrasileiroValue(0),),
        steps_before_uc=1,
        table1={
            "system": "Asyn.",
            "failures": "Crash",
            "processes": "3t+1",
            "one_step": "Agreed proposals",
            "two_step": "—",
        },
    )


def twostep() -> AlgorithmSpec:
    """No fast path: underlying consensus only (zero-degradation reference)."""
    from .baselines.twostep import TwoStepConsensus

    return AlgorithmSpec(
        name="twostep",
        make=TwoStepConsensus,
        required_ratio=3,
        steps_before_uc=0,
        table1={
            "system": "Asyn.",
            "failures": "Byzan.",
            "processes": "3t+1",
            "one_step": "—",
            "two_step": "underlying only",
        },
    )


def sync_onestep() -> AlgorithmSpec:
    """Mostefaoui et al.'s one-round condition-based consensus (the
    synchronous Table 1 row, ``n > t``).  A round protocol: run it on
    ``engine="sync"``, with its crashes as :class:`RoundCrash` faults."""
    from .baselines.sync_onestep import SyncOneStepConsensus

    return AlgorithmSpec(
        name="mostefaoui (sync)",
        make=lambda pid, config, value, uc_factory: SyncOneStepConsensus(
            pid, config, value
        ),
        required_ratio=1,
        failure_model="crash",
        table1={
            "system": "Syn.",
            "failures": "Crash",
            "processes": "t+1",
            "one_step": "Condition-Based (adaptive)",
            "two_step": "—",
        },
    )


def all_algorithms() -> list[AlgorithmSpec]:
    """Every registered asynchronous algorithm, in the paper's Table 1
    order.  The synchronous row (Mostefaoui et al. [11]) runs only on the
    lockstep engine — see :func:`sync_onestep`.
    """
    return [
        brasileiro(),
        izumi(),
        bosco_weak(),
        bosco_strong(),
        dex_freq(),
        dex_prv(),
        twostep(),
    ]


# -- deployment -------------------------------------------------------------------------


#: The execution backends ``Scenario.engine`` selects between.
ENGINES = ("sim", "sync", "mc", "net")


def _check_choice(what: str, value: str, choices) -> None:
    if value not in choices:
        raise ConfigurationError(
            f"unknown {what} {value!r} (one of: {', '.join(choices)})"
        )


@dataclass
class Deployment:
    """A fully wired, engine-agnostic deployment.

    Where :class:`Scenario` is the *declarative* layer (algorithm registry,
    input vectors, fault validation), a ``Deployment`` is the layer below:
    concrete per-process protocols plus trusted services, ready to run on
    any backend.  ``Scenario.run`` builds one internally; multi-instance
    frontends that wire their own protocols (e.g.
    :class:`repro.shard.service.ShardedService`) build one directly and
    get every engine for free.

    Args:
        config: system parameters.
        protocols: one (possibly fault-wrapped) protocol per process.
        services: trusted services by name.
        faulty: ids of the faulty processes.
        seed: backend PRNG seed (scheduling, jitter).
        latency, scheduler, max_events: discrete-event backend knobs.
        event_sink: receives the structured run events of any backend
            (an :class:`~repro.engine.events.EventLog` is a trace).
        restarts: per-pid :class:`~repro.engine.faults.RestartPlan`
            crash-recovery schedules (kill at ``at``, relaunch
            ``restart_after`` later with a freshly built protocol).
            Honored by the ``"sim"`` and ``"net"`` engines; the others
            reject a deployment that carries one.
        mesh: optional :class:`~repro.mesh.topology.MeshTopology` — the
            socket engine runs a :class:`~repro.mesh.cluster.MeshCluster`
            (parallel hub groups) instead of the single-hub star when one
            is present with ``hubs > 1``; in-memory engines ignore it.
        shards: shard count of the workload, for mesh shard→hub
            attribution (``1`` for unsharded deployments — everything is
            then control traffic pinned to hub 0).
    """

    config: SystemConfig
    protocols: dict[ProcessId, Protocol]
    services: dict[str, Service] = field(default_factory=dict)
    faulty: frozenset = frozenset()
    seed: int = 0
    latency: LatencyModel | None = None
    scheduler: DeliveryScheduler | None = None
    max_events: int | None = None
    event_sink: EventSink | None = None
    restarts: dict[ProcessId, RestartPlan] = field(default_factory=dict)
    mesh: Any = None
    shards: int = 1

    def _reject_restarts(self, engine: str) -> None:
        if self.restarts:
            raise ConfigurationError(
                f"the {engine!r} engine does not support crash-recovery "
                "restarts; run on 'sim' or 'net'"
            )

    def run(
        self, engine: str = "sim", timeout: float | None = None, **kwargs: Any
    ) -> RunResult:
        """Run on ``engine``, forwarding ``kwargs`` to its runner method —
        the one place an engine is picked.  ``timeout`` bounds the
        wall-clock engine (``"net"``); the in-memory ones run to their own
        end and ignore it.  Every engine returns a
        :class:`~repro.engine.run.RunResult`."""
        _check_choice("engine", engine, ENGINES)
        if timeout is not None and engine == "net":
            kwargs["timeout"] = timeout
        if engine == "sync":
            return self.run_sync(**kwargs)
        if engine == "mc":
            return self.run_mc(**kwargs)
        if engine == "net":
            return self.run_net(**kwargs)
        return self.run_sim(**kwargs)

    def build_sim(self) -> Simulation:
        """The fully wired discrete-event simulation (not yet run)."""
        from .sim.runner import Simulation

        kwargs: dict[str, Any] = {}
        if self.max_events is not None:
            kwargs["max_events"] = self.max_events
        return Simulation(
            self.config,
            self.protocols,
            faulty=self.faulty,
            latency=self.latency,
            scheduler=self.scheduler,
            services=self.services,
            seed=self.seed,
            event_sink=self.event_sink,
            restarts=self.restarts,
            **kwargs,
        )

    def run_sim(self) -> RunResult:
        """Run on the deterministic discrete-event backend."""
        return self.build_sim().run_until_decided()

    def run_sync(self) -> RunResult:
        """Run on the deterministic lockstep-round backend."""
        self._reject_restarts("sync")
        from .sim.synchronous import LockstepSimulation

        return LockstepSimulation(
            self.config,
            self.protocols,
            faulty=self.faulty,
            services=self.services,
            event_sink=self.event_sink,
        ).run_until_decided()

    def run_mc(self) -> RunResult:
        """Run the model checker's state machine on its FIFO baseline
        schedule and repackage its tuple decision book as a
        :class:`RunResult` (time is the delivery index; the checker stamps
        no decision, so ``Decision.time`` is ``0.0``)."""
        self._reject_restarts("mc")
        from .mc.state import McSystem

        system = McSystem(
            self.config,
            self.protocols,
            services=self.services,
            faulty=self.faulty,
            event_sink=self.event_sink,
        )
        system.run_fifo()
        decisions = {
            pid: Decision(value, kind, step=step)
            for pid, (value, kind, step) in system.decisions.items()
        }
        outputs = {
            pid: [Deliver(tag, sender, value) for tag, sender, value in out]
            for pid, out in system.outputs.items()
        }
        stats = RunStats(
            messages_sent=system.counter,
            messages_delivered=system.deliveries,
            decisions=dict(decisions),
            end_time=system.now(),
        )
        return RunResult(
            config=self.config,
            decisions=decisions,
            outputs=outputs,
            stats=stats,
            faulty=self.faulty,
            end_time=system.now(),
            drained=not system.pending,
        )

    def run_net(
        self,
        timeout: float = 30.0,
        transport: str = "uds",
        mean_delay: float = 0.0005,
        link_plan: Any = None,
    ):
        """Run as real OS processes over sockets; returns a
        :class:`~repro.net.cluster.NetRunResult` (a :class:`RunResult` plus
        hub counters and per-node exit codes).

        With a :attr:`mesh` topology of more than one hub group this
        builds a :class:`~repro.mesh.cluster.MeshCluster` (lazy import —
        plain net runs never load the mesh subsystem)."""
        from .net.cluster import NetCluster

        kwargs: dict[str, Any] = dict(
            faulty=self.faulty,
            services=self.services,
            seed=self.seed,
            mean_delay=mean_delay,
            event_sink=self.event_sink,
            transport=transport,
            link_plan=link_plan,
            restarts=self.restarts,
        )
        if self.mesh is not None and getattr(self.mesh, "hubs", 1) > 1:
            from .mesh.cluster import MeshCluster

            cluster: NetCluster = MeshCluster(
                self.config,
                self.protocols,
                mesh=self.mesh,
                shards=self.shards,
                **kwargs,
            )
        else:
            cluster = NetCluster(self.config, self.protocols, **kwargs)
        return cluster.run(timeout)


# -- scenario ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A declarative consensus run.

    A plain dataclass: cloning with :func:`dataclasses.replace` re-runs
    validation and re-derives ``config``, so multi-seed sweeps
    (:meth:`run_many`) can never silently drop a field.

    Args:
        algorithm: which algorithm to deploy.
        inputs: one initial value per process (its length fixes ``n``).  A
            faulty process's entry is the value its behavior builds on
            (e.g. face A of an equivocator).
        t: declared failure bound; defaults to the largest the algorithm's
            resilience allows for this ``n``.
        faults: fault spec per faulty process id (size must be ``≤ t``);
            validated and applied through the
            :class:`~repro.engine.faults.FaultPlane`, identically on every
            backend.
        uc: ``"oracle"`` (the paper's §2.2 abstraction, default) or
            ``"real"`` (Bracha RBC + common-coin ABA + ACS).
        uc_step_cost: causal step cost of the oracle abstraction.
        latency, scheduler, seed, max_events: passed to the simulator
            (``latency``/``scheduler``/``max_events`` apply to the
            discrete-event backend only).
        engine: which backend :meth:`run` drives — ``"sim"`` (deterministic
            discrete-event), ``"sync"`` (deterministic lockstep rounds),
            ``"mc"`` (the model checker's state machine on its FIFO
            baseline schedule) or ``"net"`` (one OS process per node over
            real sockets).
        event_sink: optional :class:`~repro.engine.events.EventSink`
            receiving the structured run events of any backend; pass an
            :class:`~repro.engine.events.EventLog` to keep a trace.
    """

    algorithm: AlgorithmSpec
    inputs: Sequence[Value]
    t: int | None = None
    faults: Mapping[ProcessId, Fault] | None = None
    uc: str = "oracle"
    uc_step_cost: int = 2
    latency: LatencyModel | None = None
    scheduler: DeliveryScheduler | None = None
    seed: int = 0
    max_events: int | None = None
    engine: str = "sim"
    event_sink: EventSink | None = None
    #: optional :class:`~repro.mesh.topology.MeshTopology` — parallel hub
    #: groups on the socket engine; other engines ignore it.
    mesh: Any = None
    #: derived in ``__post_init__`` — not an init arg, ignored by clones.
    config: SystemConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.inputs = list(self.inputs)
        n = len(self.inputs)
        if self.t is None:
            self.t = self.algorithm.max_t(n)
        self.config = SystemConfig(n, self.t)
        if not self.config.satisfies(self.algorithm.required_ratio):
            raise ConfigurationError(
                f"{self.algorithm.name} requires n > "
                f"{self.algorithm.required_ratio}t; got n={n}, t={self.t}"
            )
        self._plane = FaultPlane(
            self.config,
            self.faults,
            failure_model=self.algorithm.failure_model,
            algorithm_name=self.algorithm.name,
        )
        self.faults = self._plane.faults
        _check_choice("engine", self.engine, ENGINES)

    # -- wiring ----------------------------------------------------------------------

    def _uc_factory_and_services(self) -> tuple[Callable, dict[str, Service]]:
        if self.uc == "oracle":
            service = OracleService(self.config, step_cost=self.uc_step_cost)
            factory = lambda pid, cfg: OracleConsensus(pid, cfg)  # noqa: E731
            return factory, {SERVICE_NAME: service}
        if self.uc == "real":
            from .underlying.coin import CommonCoin
            from .underlying.multivalued import MultivaluedConsensus

            coin = CommonCoin(seed=self.seed)
            factory = lambda pid, cfg: MultivaluedConsensus(pid, cfg, coin)  # noqa: E731
            return factory, {}
        raise ConfigurationError(f"unknown underlying consensus kind {self.uc!r}")

    def components(self) -> tuple[dict[ProcessId, Protocol], dict[str, Service]]:
        """Build the per-process protocols and the trusted services."""
        uc_factory, services = self._uc_factory_and_services()
        protocols: dict[ProcessId, Protocol] = {}
        for pid in self.config.processes:
            value = self.inputs[pid]
            make_honest: HonestFactory = (
                lambda v, pid=pid: self.algorithm.make(
                    pid, self.config, v, uc_factory
                )
            )
            protocols[pid] = self._plane.build(pid, make_honest, value, self.algorithm)
        self._plane.announce(self.event_sink)
        return protocols, services

    def _restart_factory(self, pid: ProcessId) -> Callable[[], Protocol]:
        """The relaunch builder for one ``CrashRecover`` pid: a fresh honest
        instance of the algorithm (amnesiac — consensus protocols keep no
        durable state; called in the restarted worker on the net engine)."""

        def factory() -> Protocol:
            uc_factory, _ = self._uc_factory_and_services()
            return self.algorithm.make(
                pid, self.config, self.inputs[pid], uc_factory
            )

        return factory

    def deployment(self) -> Deployment:
        """Wire the protocols/services into an engine-agnostic
        :class:`Deployment` (builds fresh protocol instances each call).

        ``CrashRecover`` faults become :class:`RestartPlan` entries, and a
        recovering pid is *excluded* from the deployment's faulty set: the
        engines wait for its (post-restart) decision and the agreement
        checks quantify over it — recovery means rejoining the correct
        set, not leaving it.
        """
        protocols, services = self.components()
        restarts = restart_plans(self._plane, self._restart_factory)
        return Deployment(
            config=self.config,
            protocols=protocols,
            services=services,
            faulty=frozenset(self.faults) - self._plane.recovering(),
            seed=self.seed,
            latency=self.latency,
            scheduler=self.scheduler,
            max_events=self.max_events,
            event_sink=self.event_sink,
            restarts=restarts,
            mesh=self.mesh,
        )

    def build(self) -> Simulation:
        """Construct the fully wired discrete-event simulation (not yet run)."""
        return self.deployment().build_sim()

    def run(self, **engine_kwargs: Any) -> RunResult:
        """Run the scenario on the selected :attr:`engine`; ``engine_kwargs``
        go to :meth:`Deployment.run` (``timeout=``, ``transport=`` and
        ``link_plan=`` reach ``"net"``)."""
        return self.deployment().run(self.engine, **engine_kwargs)

    def run_many(self, seeds, expected_value: Value | None = None):
        """Run the scenario once per seed and aggregate the results.

        Each per-seed clone is made with :func:`dataclasses.replace`, so
        every field of this scenario — including ones added after this
        method was written — carries over; only ``seed`` differs.

        Args:
            seeds: iterable of simulation seeds; each run is otherwise
                identical to this scenario.
            expected_value: when set, decisions differing from it count as
                unanimity violations in the aggregate.

        Returns:
            A :class:`repro.metrics.collectors.RunAggregate`.
        """
        from .metrics.collectors import RunAggregate

        aggregate = RunAggregate(label=self.algorithm.name)
        for seed in seeds:
            run = dataclasses.replace(self, seed=seed).run()
            aggregate.add(run, expected_value=expected_value)
        return aggregate


def run_once(
    algorithm: AlgorithmSpec, inputs: Sequence[Value], **kwargs: Any
) -> RunResult:
    """One-shot convenience wrapper around :class:`Scenario`."""
    return Scenario(algorithm, inputs, **kwargs).run()
