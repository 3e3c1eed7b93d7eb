"""Replayable counterexamples: serialize, minimize, and re-execute traces.

A violation found by the explorer is only worth something if it can be
handed around: a :class:`Counterexample` bundles the *scenario spec* (the
serializable recipe for rebuilding the protocol composition, see
:mod:`repro.mc.scenario`) with the *schedule* — the list of
``(src, dst, payload key)`` delivery records leading to the violation.
Message identity is content-based, never uid-based, so the same trace means
the same execution in any process (payload keys are ``repr`` of frozen
dataclasses; state fingerprints, which are process-local, are deliberately
not serialized).

The trace replays in two independent ways:

* :func:`run_schedule` re-executes it on a fresh :class:`McSystem`
  (used by greedy minimization);
* :func:`replay_on_simulator` drives the *real* simulator with a
  :class:`~repro.sim.scheduler.ReplayScheduler` dictating the exact global
  delivery order — the strongest evidence that the checker's semantics
  match the runtime the experiments use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..engine.run import RunResult
from ..sim.latency import ConstantLatency
from ..sim.runner import Simulation
from ..sim.scheduler import ReplayScheduler
from .state import McSystem

Record = tuple[int, int, str]


@dataclass
class Counterexample:
    """A serialized violation trace.

    Attributes:
        spec: scenario spec rebuilding the protocol composition.
        schedule: delivery records, in order, from the initial state to the
            violating state.
        invariant: name of the violated invariant.
        detail: human-readable description of the violation.
        decisions: correct decisions in the violating state,
            ``pid -> [value, kind, step]``.
        minimized: whether greedy minimization ran.
    """

    spec: dict[str, Any]
    schedule: list[Record]
    invariant: str
    detail: str
    decisions: dict[int, list[Any]] = field(default_factory=dict)
    minimized: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "spec": self.spec,
                "schedule": [list(record) for record in self.schedule],
                "invariant": self.invariant,
                "detail": self.detail,
                "decisions": {
                    str(pid): decision for pid, decision in self.decisions.items()
                },
                "minimized": self.minimized,
            },
            indent=2,
            default=repr,
        )

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        data = json.loads(text)
        return cls(
            spec=data["spec"],
            schedule=[
                (record[0], record[1], record[2]) for record in data["schedule"]
            ],
            invariant=data["invariant"],
            detail=data["detail"],
            decisions={
                int(pid): decision for pid, decision in data["decisions"].items()
            },
            minimized=data.get("minimized", False),
        )

    def to_scheduler(self) -> ReplayScheduler:
        return ReplayScheduler(self.schedule)


def run_schedule(
    system: McSystem, schedule: list[Record]
) -> McSystem | None:
    """Execute ``schedule`` on a fresh system, matching records by content.

    Each record is matched against the lowest-uid pending message with the
    same ``(src, dst, payload key)`` — FIFO per key, mirroring the replay
    scheduler.  Returns the final system, or ``None`` when some record has
    no pending match (the schedule is infeasible, e.g. after minimization
    removed a delivery its successors depended on).
    """
    system.start()
    for record in schedule:
        match: int | None = None
        for uid in sorted(system.pending):
            if system.schedule_record(uid) == record:
                match = uid
                break
        if match is None:
            return None
        system.deliver(match)
    return system


def replay_with_events(counterexample: Counterexample, build_system):
    """Replay the trace with an :class:`~repro.engine.events.EventLog`
    attached, so the violation renders as the same typed event stream
    every execution backend emits (cross-engine-comparable: deliveries,
    decisions, service calls — not checker-internal records).

    ``build_system`` is the scenario factory ``(spec, event_sink=...) ->
    McSystem``.  Returns ``(system, log)``; ``system`` is ``None`` when
    the schedule is infeasible (the log still holds the events up to the
    first unmatched record).
    """
    from ..engine.events import EventLog

    log = EventLog()
    system = build_system(counterexample.spec, event_sink=log)
    return run_schedule(system, counterexample.schedule), log


def minimize(
    counterexample: Counterexample,
    build_system,
    build_invariants,
) -> Counterexample:
    """Greedy delta-minimization of a violation trace.

    Repeatedly tries to drop single deliveries; a candidate survives when
    the remaining schedule still executes and still violates the same
    invariant.  Quadratic in trace length, which is fine at model-checking
    scale, and yields 1-minimal traces: removing any single remaining
    delivery breaks the violation.

    ``build_system``/``build_invariants`` are the scenario factories
    (passed in to keep this module free of scenario imports).
    """
    schedule = list(counterexample.schedule)

    def violates(candidate: list[Record]) -> bool:
        system = run_schedule(build_system(counterexample.spec), candidate)
        if system is None:
            return False
        for invariant in build_invariants(counterexample.spec):
            if invariant.name != counterexample.invariant:
                continue
            if invariant.check(system) is not None:
                return True
        return False

    changed = True
    while changed:
        changed = False
        index = len(schedule) - 1
        while index >= 0:
            candidate = schedule[:index] + schedule[index + 1 :]
            if violates(candidate):
                schedule = candidate
                changed = True
            index -= 1
    return Counterexample(
        spec=counterexample.spec,
        schedule=schedule,
        invariant=counterexample.invariant,
        detail=counterexample.detail,
        decisions=counterexample.decisions,
        minimized=True,
    )


def replay_on_simulator(
    counterexample: Counterexample, build_simulation
) -> RunResult:
    """Replay the trace on the real discrete-event simulator.

    The :class:`ReplayScheduler` dictates the exact global delivery order
    of the trace (messages the trace never delivers are dropped — in the
    asynchronous model, delayed past the end of the run), with zero base
    latency so delivery times are the trace ranks.  ``build_simulation`` is
    the scenario factory ``(spec, scheduler=..., latency=...) ->
    Simulation``.
    """
    simulation: Simulation = build_simulation(
        counterexample.spec,
        scheduler=counterexample.to_scheduler(),
        latency=ConstantLatency(0.0),
    )
    return simulation.run_to_quiescence()


def replay_matches(counterexample: Counterexample, result: RunResult) -> bool:
    """True when the simulator replay reproduced the recorded decisions."""
    replayed = {
        pid: [decision.value, decision.kind.value, decision.step]
        for pid, decision in result.correct_decisions.items()
    }
    return replayed == counterexample.decisions
