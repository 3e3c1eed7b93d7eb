"""Property-based bridge between the two execution engines: every schedule
the discrete-event simulator samples is a path in the model checker's tree,
and walking that path through :class:`McSystem` reproduces the simulator's
decisions and outputs exactly.  This is the converse direction of
counterexample replay (checker trace → simulator) and pins the two
semantics together from both sides."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import DeliverEvent, EventLog
from repro.mc.counterexample import run_schedule
from repro.mc.scenario import build_simulation, build_system, dex_scenario, idb_scenario

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def traced_schedule(log):
    """The global delivery order of a traced run, as checker records."""
    return [
        (event.sender, event.pid, repr(event.payload))
        for event in log.of_type(DeliverEvent)
    ]


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_sampled_dex_schedules_reproduce_decisions_on_the_checker(seed):
    spec = dex_scenario(7, 1, [1, 1, 1, 1, 1, 2, 2])
    log = EventLog()
    result = build_simulation(spec, seed=seed, event_sink=log).run_until_decided()
    system = run_schedule(build_system(spec), traced_schedule(log))
    assert system is not None  # the sampled schedule is a checker path
    assert {
        pid: (value, kind, step)
        for pid, (value, kind, step) in system.correct_decisions().items()
    } == {
        pid: (d.value, d.kind, d.step)
        for pid, d in result.correct_decisions.items()
    }


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_sampled_byzantine_idb_schedules_reproduce_outputs(seed):
    spec = idb_scenario(
        5,
        1,
        [1, 1, 1, 2, 2],
        byzantine={
            4: {"kind": "two-faced", "value_a": 2, "value_b": 1, "group_a": [0, 1]}
        },
    )
    log = EventLog()
    result = build_simulation(spec, seed=seed, event_sink=log).run_to_quiescence()
    system = run_schedule(build_system(spec), traced_schedule(log))
    assert system is not None
    for pid in system.correct:
        simulated = [
            (effect.tag, effect.sender, effect.value)
            for effect in result.outputs[pid]
        ]
        assert system.outputs[pid] == simulated
