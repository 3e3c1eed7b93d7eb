"""Unit tests for the shared execution-engine layer (:mod:`repro.engine`).

The interpreter, the fault plane and the event stream are exercised here
in isolation; the cross-engine behavioral guarantees live in
``test_cross_engine.py``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.codec.binary import Opaque, encode
from repro.engine.events import (
    DecideEvent,
    DeliverEvent,
    EventLog,
    EventSink,
    EventStats,
    FaultEvent,
    SendEvent,
    TeeSink,
    combine,
)
from repro.engine.faults import Crash, Custom, Equivocate, FaultPlane, Silent
from repro.engine.interpreter import (
    CensoringRewriter,
    EffectRewriter,
    ExecutionPorts,
    dispatch_service_call,
    expand_broadcasts,
    interpret,
)
from repro.errors import ConfigurationError, SimulationDeadlock, SimulationError
from repro.runtime.effects import (
    Broadcast,
    Decide,
    Deliver,
    Envelope,
    Log,
    Send,
    ServiceCall,
)
from repro.runtime.protocol import Protocol
from repro.runtime.services import Service, ServiceReply
from repro.types import DecisionKind, SystemConfig


class RecordingPorts(ExecutionPorts):
    """Turns every port call into a tuple for assertions."""

    def __init__(self, config):
        self.config = config
        self.calls = []

    def send(self, src, dst, payload, depth):
        self.calls.append(("send", src, dst, payload, depth))

    def decide(self, pid, value, kind, depth):
        self.calls.append(("decide", pid, value, kind, depth))

    def output(self, pid, effect, depth):
        self.calls.append(("output", pid, effect, depth))

    def service_call(self, pid, call, depth):
        self.calls.append(("service", pid, call.service, depth))

    def log_record(self, pid, record, depth):
        self.calls.append(("log", pid, record.event, depth))


class TestInterpret:
    def test_dispatch_and_depth_arithmetic(self):
        ports = RecordingPorts(SystemConfig(3, 0))
        interpret(
            ports,
            1,
            [
                Send(2, "m"),
                Decide(7, DecisionKind.ONE_STEP),
                Deliver("tag", 0, "v"),
                Log("noted"),
            ],
            depth=4,
        )
        assert ports.calls == [
            # messages carry the triggering depth plus one...
            ("send", 1, 2, "m", 5),
            # ...while local effects keep the handler's depth.
            ("decide", 1, 7, DecisionKind.ONE_STEP, 4),
            ("output", 1, Deliver("tag", 0, "v"), 4),
            ("log", 1, "noted", 4),
        ]

    def test_default_broadcast_fans_out_in_pid_order_with_self_copy(self):
        ports = RecordingPorts(SystemConfig(3, 0))
        interpret(ports, 1, [Broadcast("b")], depth=0)
        assert ports.calls == [
            ("send", 1, 0, "b", 1),
            ("send", 1, 1, "b", 1),
            ("send", 1, 2, "b", 1),
        ]

    def test_unknown_effect_rejected(self):
        ports = RecordingPorts(SystemConfig(2, 0))
        with pytest.raises(SimulationError, match="unknown effect"):
            interpret(ports, 0, ["not-an-effect"], depth=0)


class _EchoService(Service):
    def on_call(self, caller, payload, depth, time, reply_path=()):
        return [
            ServiceReply(dst=caller, payload=("echo", payload), depth=depth + 1,
                         reply_path=reply_path)
        ]


class TestDispatchServiceCall:
    def test_missing_service_rejected(self):
        with pytest.raises(SimulationError, match="no service registered"):
            dispatch_service_call(
                {}, 0, ServiceCall("oracle", "x"), 0, 0.0, lambda *a: None
            )

    def test_reply_path_wraps_envelopes_outermost_first(self):
        delivered = []
        dispatch_service_call(
            {"echo": _EchoService()},
            2,
            ServiceCall("echo", "q", reply_path=("outer", "inner")),
            depth=1,
            now=0.0,
            deliver_reply=lambda reply, payload: delivered.append((reply, payload)),
        )
        (reply, payload), = delivered
        assert reply.dst == 2
        assert payload == Envelope("outer", Envelope("inner", ("echo", "q")))


class TestEffectRewriter:
    def test_defaults_are_identity(self):
        effects = [Send(0, "m"), Broadcast("b"), Decide(1, DecisionKind.ONE_STEP)]
        assert EffectRewriter().rewrite_effects(effects) == effects

    def test_drop_and_splice(self):
        class DropSendsDoubleLogs(EffectRewriter):
            def rewrite_send(self, effect):
                return None

            def rewrite_log(self, effect):
                return [effect, effect]

        out = DropSendsDoubleLogs().rewrite_effects([Send(0, "m"), Log("e")])
        assert out == [Log("e"), Log("e")]

    def test_stop_rewrite_drops_tail(self):
        class StopAfterFirstSend(EffectRewriter):
            def rewrite_send(self, effect):
                self.stop_rewrite()
                return effect

        out = StopAfterFirstSend().rewrite_effects(
            [Send(0, "a"), Send(1, "b"), Log("never")]
        )
        assert out == [Send(0, "a")]

    def test_broadcast_expansion_visits_each_destination(self):
        class OmitP1(EffectRewriter):
            rewriter_expands_broadcasts = True

            def __init__(self, config):
                self.config = config

            def rewrite_send(self, effect):
                return None if effect.dst == 1 else effect

        out = OmitP1(SystemConfig(3, 0)).rewrite_effects([Broadcast("b")])
        assert out == [Send(0, "b"), Send(2, "b")]

    def test_stop_flag_restored_after_reentrant_rewrite(self):
        rewriter = EffectRewriter()
        rewriter._rewrite_stopped = True  # simulate an outer rewrite mid-stop
        rewriter.rewrite_effects([Send(0, "m")])
        assert rewriter._rewrite_stopped is True

    def test_censoring_rewriter_drops_upcalls_only(self):
        out = CensoringRewriter().rewrite_effects(
            [Decide(1, DecisionKind.ONE_STEP), Deliver("t", 0, "v"), Send(0, "m")]
        )
        assert out == [Send(0, "m")]

    def test_expand_broadcasts_helper(self):
        out = expand_broadcasts([Broadcast("b"), Log("e")], SystemConfig(2, 0))
        assert out == [Send(0, "b"), Send(1, "b"), Log("e")]


class TestFaultPlane:
    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigurationError, match="exceed the declared bound"):
            FaultPlane(SystemConfig(7, 1), {5: Silent(), 6: Silent()})

    def test_out_of_range_pid_rejected(self):
        with pytest.raises(ConfigurationError, match="outside the process space"):
            FaultPlane(SystemConfig(4, 1), {7: Silent()})

    def test_crash_model_rejects_byzantine_faults(self):
        with pytest.raises(ConfigurationError, match="crash-model algorithm"):
            FaultPlane(
                SystemConfig(7, 1),
                {6: Equivocate(1, 2)},
                failure_model="crash",
                algorithm_name="izumi",
            )

    def test_crash_model_accepts_crash_faults(self):
        plane = FaultPlane(
            SystemConfig(7, 1), {6: Crash(3)}, failure_model="crash"
        )
        assert plane.faulty == frozenset({6})

    def test_build_honest_and_faulty(self):
        class Nop(Protocol):
            def on_message(self, sender, payload):
                return []

        config = SystemConfig(4, 1)
        marker = Nop(3, config)
        plane = FaultPlane(
            config, {3: Custom(lambda pid, cfg, make, value: marker)}
        )
        honest = plane.build(0, lambda v: Nop(0, config), "v", spec=None)
        assert isinstance(honest, Nop) and honest is not marker
        assert plane.build(3, lambda v: Nop(3, config), "v", spec=None) is marker

    def test_a_negative_crash_budget_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="budget"):
            Crash(-1)
        assert Crash(0).budget == 0

    def test_announce_emits_sorted_fault_events(self):
        log = EventLog()
        FaultPlane(
            SystemConfig(7, 2), {6: Crash(3), 2: Silent()}
        ).announce(log)
        assert [(e.pid, e.fault, e.detail) for e in log.of_type(FaultEvent)] == [
            (2, "Silent", ""),
            (6, "Crash", "budget=3"),
        ]

    def test_announce_tolerates_missing_sink(self):
        FaultPlane(SystemConfig(7, 1), {6: Silent()}).announce(None)


class TestEventStream:
    def _sample_events(self):
        return [
            SendEvent(0.0, 0, 1, "m", 1),
            DeliverEvent(1.0, 1, 0, "m", 1),
            DecideEvent(1.0, 1, 7, DecisionKind.ONE_STEP, 1),
            DecideEvent(2.0, 1, 8, DecisionKind.TWO_STEP, 2),  # late duplicate
            DecideEvent(2.0, 0, 7, DecisionKind.TWO_STEP, 2),
        ]

    def test_event_log_records_and_filters(self):
        log = EventLog()
        for event in self._sample_events():
            log.emit(event)
        assert len(log) == 5
        assert [e.pid for e in log.of_type(DecideEvent)] == [1, 1, 0]

    def test_event_log_decisions_keeps_first_per_pid(self):
        log = EventLog()
        for event in self._sample_events():
            log.emit(event)
        decisions = log.decisions()
        assert decisions[1].value == 7 and decisions[1].step == 1
        assert decisions[0].step == 2

    def test_event_stats_counters(self):
        stats = EventStats()
        for event in self._sample_events():
            stats.emit(event)
        assert stats.sends == 1
        assert stats.delivers == 1
        assert stats.decide_steps == {1: 1, 0: 2}
        assert stats.one_step_fraction == 0.5

    def test_event_log_format_renders_one_line_per_event(self):
        log = EventLog()
        log.emit(DeliverEvent(1.5, 2, 0, "m", 3))
        log.emit(DecideEvent(2.0, 2, 7, DecisionKind.ONE_STEP, 1))
        lines = log.format().splitlines()
        assert len(lines) == 2
        assert "p2" in lines[0] and "DeliverEvent" in lines[0]
        assert "sender=0 payload='m' depth=3" in lines[0]
        assert "DecideEvent" in lines[1] and "value=7" in lines[1] and "step=1" in lines[1]
        assert log.format(limit=1) == lines[0]

    def test_combine(self):
        log = EventLog()
        assert combine(None, None) is None
        assert combine(None, log) is log
        tee = combine(log, EventStats())
        assert isinstance(tee, TeeSink)

    def test_tee_sink_fans_out(self):
        a, b = EventLog(), EventLog()
        TeeSink(a, b).emit(SendEvent(0.0, 0, 1, "m", 1))
        assert len(a) == len(b) == 1


class TestLazyPayloadEvents:
    """An event built from an un-decoded ``Opaque`` span (the socket hub)
    is indistinguishable from one built from the object (every in-memory
    engine) — except that nothing decodes until ``payload`` is read."""

    PAYLOAD = Envelope("mux", Envelope("s1.3", ("propose", 7, (1, 2))))

    @pytest.fixture(params=[SendEvent, DeliverEvent])
    def pair(self, request):
        eager = request.param(0.5, 1, 2, self.PAYLOAD, 3)
        lazy = request.param(0.5, 1, 2, Opaque(encode(self.PAYLOAD)), 3)
        return eager, lazy

    def test_same_type_and_payload(self, pair):
        eager, lazy = pair
        assert type(lazy) is type(eager)
        assert type(lazy.raw) is Opaque and eager.raw is self.PAYLOAD
        assert lazy.payload == eager.payload == self.PAYLOAD

    def test_compare_hash_repr_equal(self, pair):
        eager, lazy = pair
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        assert "payload=Envelope(component='mux'" in repr(lazy)
        assert lazy != type(eager)(0.5, 1, 2, "other", 3)
        other = DeliverEvent if type(eager) is SendEvent else SendEvent
        assert lazy != other(0.5, 1, 2, self.PAYLOAD, 3)

    def test_pickle_and_copy_round_trip_materialized(self, pair):
        eager, lazy = pair
        for event in (eager, lazy):
            for clone in (pickle.loads(pickle.dumps(event)), copy.copy(event)):
                assert type(clone) is type(eager)
                assert clone == eager and clone.raw == self.PAYLOAD

    def test_stay_frozen(self, pair):
        for event in pair:
            for name in ("payload", "raw", "time", "depth", "extra"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(event, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                del event.raw
            assert not hasattr(event, "__dict__")

    def test_span_decodes_once_and_is_shared(self, monkeypatch):
        from repro.codec import binary

        calls = []
        real = binary.decode
        monkeypatch.setattr(
            binary, "decode", lambda data, lazy=False: calls.append(1) or real(data, lazy)
        )
        span = Opaque(encode(self.PAYLOAD))
        send = SendEvent(0.0, 1, 2, span, 3)
        deliver = DeliverEvent(0.1, 2, 1, span, 3)
        assert calls == []  # building events decodes nothing
        assert send.payload is deliver.payload
        assert len(calls) == 1


class TestMessageEventConstructors:
    """``SendEvent``/``DeliverEvent`` carry hand-written constructors (the
    hub builds two per routed copy); everything observable about them is
    what the generated ones gave."""

    @pytest.mark.parametrize(
        "cls, third", [(SendEvent, "dst"), (DeliverEvent, "sender")], ids=["send", "deliver"]
    )
    def test_positional_and_keyword_construction_agree(self, cls, third):
        positional = cls(0.5, 1, 2, "m", 3)
        keyword = cls(**{"time": 0.5, "pid": 1, third: 2, "raw": "m", "depth": 3})
        mixed = cls(0.5, 1, 2, depth=3, raw="m")
        assert positional == keyword == mixed
        assert hash(positional) == hash(keyword)
        assert repr(positional) == (
            f"{cls.__name__}(time=0.5, pid=1, {third}=2, payload='m', depth=3)"
        )
        assert (positional.time, positional.pid, getattr(positional, third)) == (0.5, 1, 2)
        assert (positional.raw, positional.payload, positional.depth) == ("m", "m", 3)
        assert cls.__match_args__ == ("time", "pid", third, "raw", "depth")
        assert [f.name for f in dataclasses.fields(cls)] == list(cls.__match_args__)
        match positional:
            case SendEvent(t, pid, dst, raw, depth) | DeliverEvent(t, pid, dst, raw, depth):
                assert (t, pid, dst, raw, depth) == (0.5, 1, 2, "m", 3)

    @pytest.mark.parametrize("cls", [SendEvent, DeliverEvent])
    def test_wrong_arguments_are_type_errors(self, cls):
        for args, kwargs in (
            ((0.5, 1, 2, "m"), {}),
            ((0.5, 1, 2, "m", 3, 4), {}),
            ((0.5, 1, 2, "m", 3), {"depth": 3}),
            ((0.5, 1, 2, "m"), {"payload": "m"}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    @pytest.mark.parametrize("cls", [SendEvent, DeliverEvent])
    def test_still_frozen_and_slotted(self, cls):
        event = cls(0.5, 1, 2, "m", 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.depth
        assert event.time == 0.5 and not hasattr(event, "__dict__")
        assert cls.__dataclass_params__.frozen

    @pytest.mark.parametrize("cls", [SendEvent, DeliverEvent])
    def test_round_trips_from_a_span_and_from_an_object(self, cls):
        payload = Envelope("s1.3", ("propose", 7))
        for raw in (payload, Opaque(encode(payload))):
            event = cls(0.5, 1, 2, raw, 3)
            for clone in (pickle.loads(pickle.dumps(event)), copy.copy(event)):
                assert clone == event == cls(0.5, 1, 2, payload, 3)
                assert hash(clone) == hash(event) and repr(clone) == repr(event)
                assert clone.raw == payload  # materialized on the way

    def test_tee_sink_calls_each_sink_once_per_event_in_order(self):
        seen = []

        class Tagged(EventSink):
            def __init__(self, tag):
                self.tag = tag

            def emit(self, event):
                seen.append((self.tag, event))

        tee = TeeSink(Tagged("a"), None, Tagged("b"))
        events = [SendEvent(0.0, 0, 1, "m", 1), DeliverEvent(0.1, 1, 0, "m", 1)]
        for event in events:
            tee.emit(event)
        assert seen == [("a", events[0]), ("b", events[0]), ("a", events[1]), ("b", events[1])]
        assert len(tee.sinks) == 2


class TestLockstepSimulation:
    def _deployment(self, protocol_cls, n=3):
        config = SystemConfig(n, 0)
        return config, {pid: protocol_cls(pid, config) for pid in config.processes}

    def test_round_synchronous_delivery(self):
        from repro.sim.synchronous import LockstepSimulation

        class FloodOnce(Protocol):
            def on_start(self):
                self.seen = []
                return [Broadcast("hello")] if self.process_id == 0 else []

            def on_message(self, sender, payload):
                self.seen.append((sender, payload))
                return [Decide(payload, DecisionKind.ONE_STEP)]

        config, protocols = self._deployment(FloodOnce)
        result = LockstepSimulation(config, protocols).run_until_decided()
        assert result.decided_value == "hello"
        # everything sent in round 0 arrives together at round 1.
        assert result.end_time == 1.0
        assert all(d.step == 1 for d in result.decisions.values())

    def test_deadlock_reported_with_undecided_set(self):
        from repro.sim.synchronous import LockstepSimulation

        class Mute(Protocol):
            def on_start(self):
                return [Broadcast("x")] if self.process_id == 0 else []

            def on_message(self, sender, payload):
                return []

        config, protocols = self._deployment(Mute)
        with pytest.raises(SimulationDeadlock):
            LockstepSimulation(config, protocols).run_until_decided()


class TestMcRunFifo:
    def test_livelock_cap_raises(self):
        from repro.mc.state import McSystem

        class PingPong(Protocol):
            def on_start(self):
                return [Send(1 - self.process_id, "ping")]

            def on_message(self, sender, payload):
                return [Send(sender, "pong")]

        config = SystemConfig(2, 0)
        system = McSystem(
            config, {pid: PingPong(pid, config) for pid in config.processes}
        )
        with pytest.raises(SimulationError, match="max_deliveries"):
            system.run_fifo(max_deliveries=50)
