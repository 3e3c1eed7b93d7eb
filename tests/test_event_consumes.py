"""Nobody builds an event nobody reads.

Three layers:

* ``TeeSink`` routing: each event type goes, in sink order, only to the
  sinks whose ``consumes`` covers it; a sink that declares nothing reads
  everything, and a tee reads the union of its sinks;
* engines: a run whose only sink is the sharded service's
  ``ShardStreamSink`` (which reads log and service events) constructs no
  ``SendEvent``/``DeliverEvent`` at all — an ``EventStats`` beside it still
  sees every message;
* the simulator: attaching a sink, whatever it reads, never moves a
  delivery — the ``RunResult`` is equal field for field, decision times
  to the last bit.
"""

import pytest

from repro.engine.events import (
    DecideEvent,
    DeliverEvent,
    EventLog,
    EventSink,
    EventStats,
    LogEvent,
    SendEvent,
    ServiceEvent,
    TeeSink,
    combine,
    reader,
)
from repro.engine.faults import Equivocate
from repro.harness import Scenario, dex_freq
from repro.shard import ShardedService, ShardStreamSink, shard_workload
from repro.sim.latency import ConstantLatency
from repro.sim.scheduler import RandomJitterScheduler
from repro.types import DecisionKind
from repro.workloads.inputs import split

from .test_net_engine import assert_no_leaks


class _Recorder(EventSink):
    def __init__(self, tag, seen):
        self.tag, self.seen = tag, seen

    def emit(self, event):
        self.seen.append((self.tag, type(event).__name__))


class _ReadsLogs(_Recorder):
    consumes = frozenset({LogEvent})


class _ReadsMessages(_Recorder):
    consumes = frozenset({SendEvent, DeliverEvent})


def _stream():
    return [
        SendEvent(0.0, 0, 1, "m", 1),
        LogEvent(0.1, 1, "shard.open", {}),
        DeliverEvent(0.2, 1, 0, "m", 1),
        DecideEvent(0.3, 1, 7, DecisionKind.ONE_STEP, 1),
    ]


class TestTeeRouting:
    def test_each_type_reaches_its_readers_in_sink_order(self):
        seen = []
        tee = TeeSink(
            _ReadsMessages("a", seen),
            _ReadsLogs("b", seen),
            _Recorder("c", seen),
            _ReadsMessages("d", seen),
        )
        for _ in range(2):  # the second pass runs on the resolved routes
            seen.clear()
            for event in _stream():
                tee.emit(event)
            assert seen == [
                ("a", "SendEvent"), ("c", "SendEvent"), ("d", "SendEvent"),
                ("b", "LogEvent"), ("c", "LogEvent"),
                ("a", "DeliverEvent"), ("c", "DeliverEvent"), ("d", "DeliverEvent"),
                ("c", "DecideEvent"),
            ]

    def test_an_undeclared_sink_gets_everything(self):
        log, seen = EventLog(), []
        tee = TeeSink(_ReadsLogs("logs", seen), log)
        for event in _stream():
            tee.emit(event)
        assert log.events == _stream()
        assert seen == [("logs", "LogEvent")]

    def test_a_tee_reads_the_union_of_its_sinks(self):
        logs, messages = _ReadsLogs("a", []), _ReadsMessages("b", [])
        assert TeeSink(logs, messages).consumes == {LogEvent, SendEvent, DeliverEvent}
        assert TeeSink(logs, TeeSink(messages)).consumes == {
            LogEvent, SendEvent, DeliverEvent
        }
        assert TeeSink(logs, EventStats()).consumes is None
        assert TeeSink().consumes == frozenset()
        service = ShardStreamSink(shards=2)
        assert service.consumes == {LogEvent, ServiceEvent}
        assert reader(TeeSink(logs, service), SendEvent) is None
        tee = TeeSink(service, messages)
        assert reader(tee, DeliverEvent) is messages and reader(tee, DecideEvent) is None
        assert reader(None, SendEvent) is None
        assert reader(EventLog(), SendEvent) is not None

    def test_combine_of_one_sink_is_that_sink(self):
        service = ShardStreamSink(shards=2)
        assert combine(service) is service
        assert combine(None, service, None) is service
        assert combine() is None


def _count_message_events(monkeypatch):
    """Count ``SendEvent``/``DeliverEvent`` constructions in this process
    (forked nodes inherit the wrapper but count into their own memory)."""
    counts = {SendEvent: 0, DeliverEvent: 0}
    for kind in counts:

        def counting(self, *args, _kind=kind, _init=kind.__init__):
            counts[_kind] += 1
            _init(self, *args)

        monkeypatch.setattr(kind, "__init__", counting)
    return counts


class TestNoReaderNoEvent:
    @pytest.mark.parametrize("engine", ["sim", "sync"])
    def test_the_service_sink_alone_builds_no_message_event(self, monkeypatch, engine):
        counts = _count_message_events(monkeypatch)
        report = ShardedService(n=7, shards=4, seed=3, engine=engine).run(count=24)
        assert not report.divergence and report.commands == 24
        assert report.result.stats.messages_sent > 0
        assert counts == {SendEvent: 0, DeliverEvent: 0}

    @pytest.mark.parametrize("engine", ["sim", "sync"])
    def test_a_reader_beside_it_sees_every_message(self, monkeypatch, engine):
        counts = _count_message_events(monkeypatch)
        stats = EventStats()
        report = ShardedService(n=7, shards=4, seed=3, engine=engine, event_sink=stats).run(
            count=24
        )
        totals = report.result.stats
        assert stats.sends == totals.messages_sent == counts[SendEvent] > 0
        assert stats.delivers == totals.messages_delivered == counts[DeliverEvent]
        assert report.aggregate["sends"] == totals.messages_sent

    @pytest.mark.net
    def test_on_the_socket_hub_too(self, monkeypatch):
        counts = _count_message_events(monkeypatch)
        report = ShardedService(n=7, shards=4, seed=11, engine="net").run(
            count=16, timeout=25.0
        )
        assert not report.divergence and report.commands == 16
        assert report.result.stats.messages_sent > 0
        assert counts == {SendEvent: 0, DeliverEvent: 0}
        stats = EventStats()
        report = ShardedService(n=7, shards=4, seed=11, engine="net", event_sink=stats).run(
            count=16, timeout=25.0
        )
        assert not report.divergence
        assert stats.sends == report.result.stats.messages_sent == counts[SendEvent]
        assert stats.delivers == report.result.stats.messages_delivered
        assert_no_leaks()


#: delay models of the simulator: the inlined uniform draw, a constant, and
#: an adversarial scheduler that takes the generic path.
MODELS = {
    "uniform": {},
    "constant": {"latency": ConstantLatency(1.0)},
    "jitter": {"scheduler": RandomJitterScheduler(0.7)},
}
SINKS = {
    "none": lambda: None,
    "service": lambda: ShardStreamSink(shards=1),
    "log": EventLog,
}


class TestTracedIsUntraced:
    """A sink observes; it never moves a delivery, by a single bit."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_dex_results_are_equal_with_any_sink(self, model):
        for seed in range(20):
            faults = {6: Equivocate(1, 2)} if seed % 4 == 3 else None
            results = {
                name: Scenario(
                    dex_freq(),
                    split(1, 2, 7, seed % 4),
                    faults=faults,
                    seed=seed,
                    event_sink=make(),
                    **MODELS[model],
                ).run()
                for name, make in SINKS.items()
            }
            # field for field: every ``Decision.time`` compared as a float
            assert results["service"] == results["none"], (model, seed)
            assert results["log"] == results["none"], (model, seed)

    def test_sharded_results_are_equal_with_any_sink(self):
        for seed in range(6):
            service = ShardedService(n=7, shards=2, contention=0.3, seed=seed)
            arrivals = shard_workload(24, seed=seed)
            results = [
                service.deployment(arrivals, make()).run("sim") for make in SINKS.values()
            ]
            assert results[0] == results[1] == results[2], seed
            assert results[0].decisions and results[0].end_time > 0
