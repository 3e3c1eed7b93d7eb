"""The shard books that follow the window, checked against what they replace.

* :class:`~repro.shard.router.SlotSet` — a floor plus the members above it —
  answers membership exactly as the plain set of every slot added would;
* :class:`~repro.shard.metrics.ShardStreamSink` folds each slot as its
  ``shard.decide`` arrives, and its report equals the one the whole-history
  fold (``tests/shard_fold_reference.py``) builds from the same stream:
  on generated streams with duplicated opens and decides, decides ahead of
  their opens, junk records and restarts that re-open a slot, and on real
  service runs, healthy and with a replica that crashes and recovers.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import DurabilityConfig
from repro.engine.events import LogEvent, ServiceEvent
from repro.engine.faults import CrashRecover
from repro.shard.metrics import ShardStreamSink
from repro.shard.router import SlotSet
from repro.shard.service import ShardedService
from repro.types import DecisionKind, RunStats

from .shard_fold_reference import ReferenceStreamSink

SHARDS = 2
KINDS = [kind.value for kind in DecisionKind]


# -- the slot set ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 40)), st.lists(st.integers(-5, 50), max_size=30))
def test_a_slot_set_is_the_set_of_slots_added(added, probes):
    slots, plain = SlotSet(), set()
    for slot in added:
        slots.add(slot)
        plain.add(slot)
        assert slot in slots
    assert all((probe in slots) == (probe in plain) for probe in probes + added)
    assert {*range(slots.floor), *slots._above} == plain
    assert slots.floor not in slots._above and not slots._above & set(range(slots.floor))


def test_slots_added_in_order_keep_no_member_above_the_floor():
    slots = SlotSet()
    for slot in (1, 2, 0, 3, 5, 4):
        slots.add(slot)
    assert slots.floor == 6 and not slots._above


# -- the fold, on generated streams -----------------------------------------------------

times = st.floats(0.0, 50.0, allow_nan=False).map(lambda t: round(t, 2))
slot_data = st.fixed_dictionaries(
    {
        "shard": st.one_of(st.integers(-1, SHARDS), st.just("x")),
        "slot": st.one_of(st.integers(-1, 4), st.none()),
        "size": st.integers(0, 4),
    },
    optional={"kind": st.sampled_from(KINDS + ["sideways"])},
)
log_events = st.builds(
    LogEvent,
    times,
    st.integers(0, 3),
    st.sampled_from(["shard.open", "shard.decide", "shard.open", "shard.decide", "other"]),
    st.one_of(slot_data, slot_data, st.integers(), st.just({})),
)
service_events = st.builds(
    ServiceEvent,
    times,
    st.integers(0, 3),
    st.just("oracle"),
    st.one_of(
        st.builds(SimpleNamespace, instance=st.tuples(st.integers(-1, SHARDS), st.integers(0, 4))),
        st.none(),
    ),
)


def rows(report):
    """A report as nested item lists, so key order is compared too."""
    per_shard, summary = report
    return [list(row.items()) for row in per_shard], list(summary.items())


def restart(events, pid):
    """The stream again, as ``pid`` would log it after a restart that
    re-opens (and re-decides) every slot it had opened."""
    return [
        LogEvent(e.time + 100.0, e.pid, e.event, e.data)
        for e in events
        if type(e) is LogEvent and e.pid == pid
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(log_events, log_events, service_events), max_size=60),
    st.integers(0, 3),
    st.sampled_from([(2, 2), (1, 0), (2, 1)]),
    st.sampled_from([1, 2]),
    st.one_of(st.none(), st.floats(0.5, 20.0, allow_nan=False)),
)
def test_the_streaming_fold_reports_what_the_reference_fold_does(
    events, restarted, costs, hubs, duration
):
    uc_step_cost, steps_before_uc = costs
    sinks = [
        cls(SHARDS, uc_step_cost=uc_step_cost, hubs=hubs, steps_before_uc=steps_before_uc)
        for cls in (ShardStreamSink, ReferenceStreamSink)
    ]
    stream = events + restart(events, restarted) + events  # duplicates, re-opens
    for event in stream:
        for sink in sinks:
            sink.emit(event)
    commands = {0: 3, 1: 5}
    stats = RunStats(messages_sent=40, messages_delivered=35)
    fold, reference = sinks
    assert rows(fold.report(commands, duration, stats)) == rows(
        reference.report(commands, duration, stats)
    )
    assert rows(fold.report()) == rows(reference.report())


def decide(time, pid, slot, kind="one-step"):
    return LogEvent(time, pid, "shard.decide", {"shard": 0, "slot": slot, "kind": kind})


def open_(time, pid, slot):
    return LogEvent(time, pid, "shard.open", {"shard": 0, "slot": slot, "size": 1})


@pytest.mark.parametrize(
    "stream, latencies",
    [
        # the first open and the first decide per key win
        ([open_(1.0, 0, 0), open_(2.0, 0, 0), decide(4.0, 0, 0), decide(9.0, 0, 0)], [3.0]),
        # a decide ahead of its open waits for the late open ...
        ([decide(4.0, 0, 0), open_(1.5, 0, 0), open_(3.0, 0, 0)], [2.5]),
        # ... and without one is charged from 0.0
        ([decide(4.0, 0, 0)], [4.0]),
        # a re-open after the decide changes nothing
        ([open_(1.0, 0, 0), decide(2.0, 0, 0), open_(7.0, 0, 0), decide(9.0, 0, 0)], [1.0]),
    ],
)
def test_the_fold_rules(stream, latencies):
    sink = ShardStreamSink(SHARDS)
    for event in stream:
        sink.emit(event)
    (row, _), _ = sink.report()
    assert row["runs"] == 1
    assert row["p50_decision_latency_s"] == row["p99_decision_latency_s"] == latencies[0]
    assert not sink._opens  # the slot is folded: nothing waits on it


# -- the fold, on real runs -------------------------------------------------------------


@pytest.mark.parametrize("flavour", ["healthy", "crash-recover"])
def test_a_service_report_is_the_reference_folds(tmp_path, flavour):
    for seed in range(3):
        reference = ReferenceStreamSink(SHARDS)
        service = ShardedService(
            n=7,
            shards=SHARDS,
            seed=seed,
            contention=0.3,
            event_sink=reference,
            faults={2: CrashRecover(at=1.5, restart_after=1.0)} if flavour != "healthy" else None,
            durability=(
                DurabilityConfig(str(tmp_path / str(seed)), snapshot_every=2)
                if flavour != "healthy"
                else None
            ),
        )
        report = service.run(count=40)
        assert not report.divergence
        commands = {shard: sum(map(len, batches)) for shard, batches in report.digest}
        expected = reference.report(commands, report.duration, report.result.stats)
        assert rows((report.per_shard, report.aggregate)) == rows(expected), seed


def test_a_healthy_fold_keeps_no_key_per_slot():
    """What the fold still holds at the end of a healthy run: one latency
    per decision and one step count per slot (the report's inputs), and
    each replica's folded slots as a bare floor."""
    fold = ShardStreamSink(4)
    service = ShardedService(n=7, shards=4, seed=5, event_sink=fold)
    report = service.run(count=512)
    decisions = sum(map(len, fold._latencies))
    assert decisions == 7 * report.slots
    assert sum(map(len, fold._max_step)) == report.slots
    assert not fold._waiting and len(fold._opens) <= 7 * 4
    assert all(not slots._above for slots in fold._decided.values())

