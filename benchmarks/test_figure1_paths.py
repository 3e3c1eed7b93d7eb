"""F1 — reproduce the behavior of Figure 1 (algorithm DEX pseudocode).

Three traced executions exhibit each decision line of the pseudocode:

* line 8  — one-step decision from the plain view ``J1``;
* line 17 — two-step decision from the IDB view ``J2``;
* line 21 — adoption of the underlying consensus' decision;

and the trace confirms the guard of each line (``|J| ≥ n − t``, ``P1``/
``P2``) as well as the lines-12-15 invariant that every correct process
activates the underlying consensus exactly once.
"""

from _util import write_report

from repro.engine.events import DecideEvent, EventLog, ServiceEvent
from repro.harness import Scenario, dex_freq
from repro.sim.latency import ConstantLatency
from repro.sim.scheduler import DelaySenders
from repro.types import DecisionKind
from repro.workloads.inputs import split, unanimous, with_frequency_gap


def traced(scenario: Scenario):
    """``(result, event log)`` of one traced run."""
    return scenario.run(), scenario.event_sink


def run_three_paths():
    one = traced(Scenario(
        dex_freq(), unanimous(1, 7), seed=0, event_sink=EventLog(),
        latency=ConstantLatency(1.0),
    ))
    two = traced(Scenario(
        dex_freq(), with_frequency_gap(1, 2, 7, 5), seed=1, event_sink=EventLog(),
        latency=ConstantLatency(1.0), scheduler=DelaySenders([0], extra=50.0),
    ))
    fallback = traced(Scenario(
        dex_freq(), split(1, 2, 7, 3), seed=2, event_sink=EventLog(),
        latency=ConstantLatency(1.0),
    ))
    return one, two, fallback


def test_figure1_decision_paths(benchmark):
    paths = benchmark.pedantic(run_three_paths, rounds=1, iterations=1)
    (one, _), (two, _), (fallback, _) = paths

    lines = ["Figure 1 decision paths (n=7, t=1, constant latency):", ""]
    for label, (result, log) in zip(
        ("line 8 (one-step)", "line 17 (two-step)", "line 21 (underlying)"), paths
    ):
        kinds = sorted({d.kind.value for d in result.correct_decisions.values()})
        steps = sorted({d.step for d in result.correct_decisions.values()})
        lines.append(
            f"{label:22} decided={result.decided_value!r} kinds={kinds} steps={steps}"
        )
        for event in log.of_type(DecideEvent)[:3]:
            fields = {"value": event.value, "kind": event.kind.value, "step": event.step}
            lines.append(f"    {fields}")
    write_report("figure1_paths", "\n".join(lines))

    # line 8: all correct decide one-step at depth 1
    assert {d.kind for d in one.correct_decisions.values()} == {DecisionKind.ONE_STEP}
    assert {d.step for d in one.correct_decisions.values()} == {1}
    # line 17: the starved schedule forces at least the late processes
    # through the IDB path at depth 2, never deeper
    assert DecisionKind.TWO_STEP in {d.kind for d in two.correct_decisions.values()}
    assert all(d.step <= 2 for d in two.correct_decisions.values())
    # line 21: off-condition input adopts the underlying consensus at 4 steps
    assert {d.kind for d in fallback.correct_decisions.values()} == {
        DecisionKind.UNDERLYING
    }
    assert {d.step for d in fallback.correct_decisions.values()} == {4}


def test_figure1_uc_activated_exactly_once(benchmark):
    def run():
        log = EventLog()
        sim = Scenario(dex_freq(), unanimous(1, 7), seed=3, event_sink=log).build()
        sim.run_until_decided()
        sim.run_to_quiescence()
        return log

    log = benchmark.pedantic(run, rounds=1, iterations=1)
    callers = [e.pid for e in log.of_type(ServiceEvent)]
    assert sorted(callers) == list(range(7))  # lines 12-15: once per process
