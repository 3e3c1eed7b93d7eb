"""Edge cases at the scheduler/event-queue boundary: negative extra-delay
clamping, the lazy (flat-entry) heap, and schedule replay fidelity."""

import pytest

from repro.engine.events import DeliverEvent, EventLog
from repro.harness import Equivocate, Scenario, dex_freq
from repro.sim.events import Event, EventQueue
from repro.sim.latency import ConstantLatency
from repro.sim.scheduler import (
    DelayMatching,
    DelaySenders,
    DeliveryScheduler,
    PartitionScheduler,
    RandomJitterScheduler,
    ReplayScheduler,
)


class NegativeExtra(DeliveryScheduler):
    """A buggy composition handing back a large negative extra delay."""

    def extra_delay(self, rng, src, dst, payload, time):
        return -100.0


class TestNegativeDelayClamping:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DelaySenders([0], -1.0)
        with pytest.raises(ValueError):
            DelayMatching(lambda s, d, p: True, -0.5)
        with pytest.raises(ValueError):
            RandomJitterScheduler(-2.0)
        with pytest.raises(ValueError):
            PartitionScheduler(lambda p: 0, start=2.0, end=1.0)
        with pytest.raises(ValueError):
            PartitionScheduler(lambda p: 0, start=0.0, end=1.0, jitter=-1.0)

    def test_negative_extra_is_clamped_not_time_travel(self):
        scenario = Scenario(
            dex_freq(),
            [1, 1, 1, 1, 1, 2, 2],
            scheduler=NegativeExtra(),
            event_sink=EventLog(),
        )
        result = scenario.run()
        assert result.all_correct_decided()
        # Clamping pins every delivery at (not before) its send time, so
        # simulated time stays monotone and never goes negative.
        times = [e.time for e in scenario.event_sink.of_type(DeliverEvent)]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)
        assert result.end_time >= 0.0

    def test_replay_past_due_records_deliver_immediately(self):
        # A dictating scheduler can return a negative delay when the
        # record's rank is already in the past; the runner clamps to "now".
        replay = ReplayScheduler([(0, 1, "'m'")])
        assert replay.extra_delay(None, 0, 1, "m", 5.0) == pytest.approx(-4.0)


class TestLazyHeap:
    def test_mixed_push_kinds_pop_in_time_order(self):
        q = EventQueue()
        q.push(Event(2.0, "start", dst=7))
        q.push_deliver(1.0, 3, 1, "late", 4)
        q.push_deliver(0.5, 2, 0, "early", 1)
        first, second, third = q.pop(), q.pop(), q.pop()
        assert (first.dst, first.payload) == (2, "early")
        assert (second.dst, second.payload, second.depth) == (3, "late", 4)
        assert (third.kind, third.dst) == ("start", 7)
        assert (q.pushed, q.popped) == (3, 3)

    def test_flat_entries_materialize_as_deliver_events(self):
        q = EventQueue()
        q.push_deliver(1.0, 5, 2, {"k": 1}, 3)
        event = q.pop()
        assert isinstance(event, Event)
        assert event.kind == "deliver"
        assert (event.dst, event.sender, event.payload, event.depth) == (
            5,
            2,
            {"k": 1},
            3,
        )

    def test_pop_entry_preserves_both_layouts(self):
        q = EventQueue()
        q.push(Event(1.0, "start", dst=0))
        q.push_deliver(2.0, 1, 0, "m", 1)
        whole = q.pop_entry()
        flat = q.pop_entry()
        assert len(whole) == 3 and isinstance(whole[2], Event)
        assert len(flat) == 6 and flat[2:] == (1, 0, "m", 1)

    def test_fifo_tie_break_across_push_kinds(self):
        q = EventQueue()
        q.push_deliver(1.0, 0, 9, "first", 1)
        q.push(Event(1.0, "deliver", dst=1, sender=9, payload="second"))
        q.push_deliver(1.0, 2, 9, "third", 1)
        assert [q.pop().dst for _ in range(3)] == [0, 1, 2]


class TestReplayScheduler:
    def test_duplicate_keys_consume_fifo(self):
        replay = ReplayScheduler([(0, 1, "m"), (0, 1, "m")])
        key = lambda payload: payload  # noqa: E731
        replay._key = key
        first = replay.extra_delay(None, 0, 1, "m", 0.0)
        second = replay.extra_delay(None, 0, 1, "m", 0.0)
        assert (first, second) == (1.0, 2.0)
        assert replay.extra_delay(None, 0, 1, "m", 0.0) == float("inf")

    def test_unlisted_messages_never_deliver(self):
        replay = ReplayScheduler([(0, 1, repr("m"))])
        assert replay.extra_delay(None, 2, 1, "m", 0.0) == float("inf")
        assert replay.horizon == 2.0

    def test_replaying_a_traced_run_reproduces_decisions(self):
        """Record one adversarial simulator run's global delivery order,
        replay it through a ReplayScheduler, and require the identical
        decision vector — the scheduler-level half of the counterexample
        replay pipeline."""
        inputs = [1, 1, 1, 1, 1, 2, 2]
        faults = {6: Equivocate(1, 2)}
        log = EventLog()
        original = Scenario(
            dex_freq(), inputs, faults=faults, seed=7, event_sink=log
        ).run()
        schedule = [
            (e.sender, e.pid, repr(e.payload)) for e in log.of_type(DeliverEvent)
        ]
        replayed = Scenario(
            dex_freq(),
            inputs,
            faults=faults,
            scheduler=ReplayScheduler(schedule),
            latency=ConstantLatency(0.0),
            seed=999,  # replay is schedule-driven: the seed must not matter
        ).run()
        assert {
            pid: (d.value, d.kind, d.step)
            for pid, d in replayed.correct_decisions.items()
        } == {
            pid: (d.value, d.kind, d.step)
            for pid, d in original.correct_decisions.items()
        }
