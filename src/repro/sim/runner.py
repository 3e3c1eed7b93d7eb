"""The deterministic discrete-event simulation runner.

A :class:`Simulation` hosts one protocol instance per process (correct
processes run real protocols, Byzantine ones run
:mod:`repro.byzantine` behaviors — the runner does not distinguish), a
latency model, an optional adversarial delivery scheduler and a set of
trusted services.  It interprets the effects emitted by the protocols and
keeps the books the paper cares about:

* **causal step accounting** — every message extends the causal chain of
  the event whose handling produced it (``depth = triggering depth + 1``);
  a decision's ``step`` is the depth of the message whose handling decided.
  With this metric, "one-step decision" is literally ``step == 1`` (decide
  while handling a depth-1 proposal), "two-step" is ``step == 2`` (a
  depth-2 IDB echo), and the appendix claim "each IDB step costs two plain
  steps" is directly measurable.
* message counts, per-process decisions and top-level protocol outputs
  (e.g. standalone IDB deliveries); attach an ``EventLog`` as
  ``event_sink`` for the structured trace.

Every run is a pure function of ``(config, protocols, seed, latency,
scheduler)``.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import Any, Callable, Mapping

from ..engine.events import (
    DeliverEvent,
    EventSink,
    FaultEvent,
    RestartEvent,
    SendEvent,
)
from ..engine.faults import RestartPlan
from ..engine.interpreter import interpret
from ..engine.run import DEFAULT_MAX_EVENTS, Engine, RunResult
from ..errors import SimulationDeadlock, SimulationError
from ..runtime.effects import SERVICE_SENDER
from ..runtime.protocol import Protocol, guarded
from ..runtime.services import Service, ServiceReply
from ..types import ProcessId, SystemConfig
from .events import Event, EventQueue
from .latency import ConstantLatency, LatencyModel, UniformLatency
from .scheduler import DeliveryScheduler, FairScheduler

_INF = float("inf")


class _ProcessState:
    """Runner-internal per-process bookkeeping."""

    __slots__ = ("protocol", "depth")

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = protocol
        self.depth = 0


class Simulation(Engine):
    """One configured, runnable execution.

    The effect semantics live in :mod:`repro.engine.interpreter` and the
    books in :class:`~repro.engine.run.Engine`; this class ships messages
    (``send``/``broadcast``, inlined — the simulator's hot loop) and
    delivers them off a seeded discrete-event queue.

    Args:
        config: system parameters ``(n, t)``.
        protocols: one protocol per process id (Byzantine behaviors are
            protocols too).
        faulty: ids of the Byzantine processes; must have size ``<= t`` and
            is used only for bookkeeping and the stop condition — the
            runner gives faulty processes no extra powers beyond what their
            behavior object does.
        latency: message latency model (default uniform 0.5–1.5).
        scheduler: adversarial extra-delay hook (default none).
        services: trusted services by name.
        seed: PRNG seed; equal seeds give identical runs.
        event_sink: optional structured-event sink
            (:mod:`repro.engine.events`; pass an ``EventLog`` for a
            trace).  Attaching one changes neither the seeded rng stream
            nor the delay arithmetic, so a traced run delivers every
            message at exactly the time, to the last bit, that an untraced
            run does; ``SendEvent``/``DeliverEvent`` are built only when
            the sink reads them (``EventSink.consumes``).
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        latency: LatencyModel | None = None,
        scheduler: DeliveryScheduler | None = None,
        services: Mapping[str, Service] | None = None,
        seed: int = 0,
        max_events: int = DEFAULT_MAX_EVENTS,
        event_sink: EventSink | None = None,
        restarts: Mapping[ProcessId, RestartPlan] | None = None,
    ) -> None:
        super().__init__(config, protocols, faulty, services, event_sink)
        self.latency = latency or UniformLatency()
        self.scheduler = scheduler or FairScheduler()
        self.rng = random.Random(seed)
        self.max_events = max_events
        self.queue = EventQueue()
        self.time = 0.0
        self._states = {pid: _ProcessState(p) for pid, p in protocols.items()}
        self._started = False
        # Crash-recovery bookkeeping: processes currently down drop every
        # delivery (matching the net engine, where a dead process's socket
        # buffers are lost).  Empty when no restarts are configured, so the
        # hot-path check is a falsy test and legacy runs are untouched.
        self._restarts = dict(restarts or {})
        self._down: set[ProcessId] = set()
        # Hot-path specializations, resolved once instead of per message.
        # The no-op FairScheduler is skipped outright; the two stateless
        # latency models are inlined with the *same* arithmetic on the same
        # rng stream, keeping runs bit-identical to the generic path.
        self._fair_scheduler = type(self.scheduler) is FairScheduler
        # A dictating scheduler (ReplayScheduler) takes over delivery times
        # for every message, including self-sends and service replies.
        self._dictated = bool(getattr(self.scheduler, "dictates_delivery", False))
        self._uniform_params: tuple[float, float] | None = None
        if type(self.latency) is UniformLatency:
            low = self.latency.low
            span = self.latency.high - low
            self._uniform_params = (low, span)
            rand = self.rng.random
            self._sample_latency = lambda src, dst: low + span * rand()
        elif type(self.latency) is ConstantLatency:
            delay = self.latency.delay
            self._sample_latency = lambda src, dst: delay
        else:
            model = self.latency
            rng = self.rng
            self._sample_latency = lambda src, dst: model.sample(rng, src, dst)

    # -- public API ---------------------------------------------------------------

    def now(self) -> float:
        return self.time

    def run_until_decided(self) -> RunResult:
        """Run until every correct process has decided.

        Raises:
            SimulationDeadlock: the event queue drained first.
            SimulationError: the ``max_events`` safety valve tripped.
        """
        return self._run(stop=None, until_decided=True)

    def run_to_quiescence(self) -> RunResult:
        """Run until no events remain (for protocols without decisions)."""
        return self._run(stop=None)

    def run_until(self, stop: Callable[["Simulation"], bool]) -> RunResult:
        """Run until an arbitrary stop predicate over the simulation holds."""
        return self._run(stop=stop)

    # -- engine ---------------------------------------------------------------------

    def _run(
        self, stop: Callable[["Simulation"], bool] | None, until_decided: bool = False
    ) -> RunResult:
        """Pop and handle events until ``stop`` holds (checked before every
        event), every correct process decided (``until_decided``), or the
        queue drains.

        The loop runs once per delivered message, so it pops the queue's
        heap itself and handles a flat deliver entry inline; only the
        whole-``Event`` entries (start, crash, restart) take a call.
        """
        if not self._started:
            self._started = True
            for pid in self.config.processes:
                self.queue.push(Event(0.0, "start", dst=pid))
            for pid, plan in sorted(self._restarts.items()):
                self.queue.push(Event(plan.at, "crash", dst=pid))
                if plan.restart_after is not None:
                    self.queue.push(
                        Event(plan.at + plan.restart_after, "restart", dst=pid)
                    )
        heap = self.queue._heap  # see EventQueue for the two entry layouts
        states = self._states
        down = self._down
        stats = self.stats
        delivers = self._delivers
        undecided = self._undecided_correct
        max_events = self.max_events
        processed = 0
        try:
            while heap:
                if until_decided:
                    if not undecided:
                        break
                elif stop is not None and stop(self):
                    break
                entry = heappop(heap)
                if entry[0] > self.time:
                    self.time = entry[0]
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                if len(entry) == 3:
                    self._dispatch_fields(entry[2].kind, entry[2].dst)
                    continue
                _, _, dst, sender, payload, depth = entry
                if down and dst in down:
                    continue  # killed: see the "crash" case of _dispatch_fields
                state = states[dst]
                if depth > state.depth:
                    state.depth = depth
                stats.messages_delivered += 1
                if delivers is not None:
                    delivers.emit(DeliverEvent(self.time, dst, sender, payload, depth))
                effects = guarded(state.protocol, sender, payload)
                if effects:
                    interpret(self, dst, effects, depth)
            else:
                if until_decided:
                    stuck = bool(undecided)
                else:
                    stuck = stop is not None and not stop(self)
                if stuck:
                    raise SimulationDeadlock(frozenset(self._undecided_correct))
        finally:
            self.queue.popped += processed
        return self._result(
            drained=not heap,
            depths={pid: s.depth for pid, s in self._states.items()},
        )

    def _dispatch_fields(self, kind: str, dst: ProcessId) -> None:
        """One whole-``Event`` entry: a process starts, is killed, or
        restarts (deliveries are handled inline by :meth:`_run`)."""
        state = self._states[dst]
        if kind == "start":
            effects = state.protocol.on_start()
        elif kind == "crash":
            # Timed kill (CrashRecover): the process goes dark — every
            # delivery while down is dropped before any bookkeeping, the
            # same loss a killed OS process suffers on the net engine.
            self._down.add(dst)
            if self._events is not None:
                self._events.emit(
                    FaultEvent(self.time, dst, fault="CrashRecover", detail="killed")
                )
            return
        else:  # "restart"
            plan = self._restarts[dst]
            state.protocol = plan.factory()
            state.depth = 0
            self._down.discard(dst)
            if self._events is not None:
                self._events.emit(RestartEvent(self.time, dst))
            effects = state.protocol.on_start()
        if effects:
            interpret(self, dst, effects, 0)

    # -- ExecutionPorts: shipping (the books are Engine's) -----------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        self.stats.messages_sent += 1
        if self._dictated:
            delay = self.scheduler.extra_delay(self.rng, src, dst, payload, self.time)
            if delay == _INF:
                return
            if delay < 0.0:
                delay = 0.0
        elif dst == src:
            delay = 0.0
        else:
            delay = self._sample_latency(src, dst)
            if not self._fair_scheduler:
                delay += self.scheduler.extra_delay(self.rng, src, dst, payload, self.time)
                # An adversarial scheduler may hand back a negative extra
                # (e.g. a buggy composition); clamping keeps events out of
                # the past so simulated time stays monotone.
                if delay < 0.0:
                    delay = 0.0
        self.queue.push_deliver(self.time + delay, dst, src, payload, depth)
        if self._sends is not None:
            self._sends.emit(SendEvent(self.time, src, dst, payload, depth))

    def broadcast(self, pid: ProcessId, payload: Any, message_depth: int) -> None:
        # Inlined fan-out of ``send``: one Broadcast becomes n queue
        # pushes, the single hottest loop of a simulated run.  Every path
        # computes a delivery time as ``send`` does, ``time + delay``, so
        # whether a sink reads the sends never moves a delivery.
        time = self.time
        push = self.queue.push_deliver
        params = self._uniform_params
        sends = self._sends
        if params is not None and self._fair_scheduler:
            # Uniform latency, no adversarial delay: the draw of
            # ``_sample_latency`` inlined, on the same rng stream.
            low, span = params
            rand = self.rng.random
            for dst in self.config.processes:
                push(
                    time if dst == pid else time + (low + span * rand()),
                    dst,
                    pid,
                    payload,
                    message_depth,
                )
                if sends is not None:
                    sends.emit(SendEvent(time, pid, dst, payload, message_depth))
        else:
            sample = self._sample_latency
            fair = self._fair_scheduler
            dictated = self._dictated
            extra = self.scheduler.extra_delay
            for dst in self.config.processes:
                if dictated:
                    delay = extra(self.rng, pid, dst, payload, time)
                    if delay == _INF:
                        continue
                    if delay < 0.0:
                        delay = 0.0
                elif dst == pid:
                    delay = 0.0
                else:
                    delay = sample(pid, dst)
                    if not fair:
                        delay += extra(self.rng, pid, dst, payload, time)
                        if delay < 0.0:
                            delay = 0.0
                push(time + delay, dst, pid, payload, message_depth)
                if sends is not None:
                    sends.emit(SendEvent(time, pid, dst, payload, message_depth))
        self.stats.messages_sent += self.config.n

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        delay = reply.delay
        if self._dictated:
            delay = self.scheduler.extra_delay(
                self.rng, SERVICE_SENDER, reply.dst, payload, self.time
            )
            if delay == _INF:
                return
            if delay < 0.0:
                delay = 0.0
        self.queue.push_deliver(
            self.time + delay, reply.dst, SERVICE_SENDER, payload, reply.depth
        )
