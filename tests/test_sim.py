"""Unit tests for the discrete-event simulator: queue, latency, schedulers
and the runner's semantics (depth accounting, services, stops)."""

import random
from dataclasses import dataclass

import pytest

from repro.engine.events import EventLog, LogEvent
from repro.errors import SimulationDeadlock, SimulationError
from repro.runtime.effects import (
    Broadcast,
    Decide,
    Deliver,
    Log,
    Send,
    ServiceCall,
)
from repro.runtime.protocol import Protocol
from repro.runtime.services import Service, ServiceReply
from repro.sim.events import Event, EventQueue
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    PerLinkLatency,
    UniformLatency,
)
from repro.sim.runner import Simulation
from repro.sim.scheduler import (
    ComposedScheduler,
    DelayMatching,
    DelaySenders,
    RandomJitterScheduler,
)
from repro.types import DecisionKind, SystemConfig


@dataclass(frozen=True)
class Token:
    hops: int


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event(2.0, "deliver", dst=0))
        q.push(Event(1.0, "deliver", dst=1))
        assert q.pop().dst == 1

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(Event(1.0, "deliver", dst=0))
        q.push(Event(1.0, "deliver", dst=1))
        assert [q.pop().dst, q.pop().dst] == [0, 1]

    def test_counters(self):
        q = EventQueue()
        q.push(Event(0.0, "start", dst=0))
        q.pop()
        assert q.pushed == 1
        assert q.popped == 1
        assert not q


class TestLatencyModels:
    def test_constant(self):
        rng = random.Random(0)
        assert ConstantLatency(2.5).sample(rng, 0, 1) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_range(self):
        model = UniformLatency(1.0, 2.0)
        rng = random.Random(1)
        for _ in range(50):
            assert 1.0 <= model.sample(rng, 0, 1) <= 2.0

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)

    def test_exponential_above_base(self):
        model = ExponentialLatency(base=0.5, mean=1.0)
        rng = random.Random(2)
        assert all(model.sample(rng, 0, 1) >= 0.5 for _ in range(50))

    def test_per_link_matrix(self):
        model = PerLinkLatency([[0.0, 1.0], [2.0, 0.0]])
        rng = random.Random(3)
        assert model.sample(rng, 0, 1) == 1.0
        assert model.sample(rng, 1, 0) == 2.0

    def test_per_link_jitter(self):
        model = PerLinkLatency([[0.0, 1.0], [1.0, 0.0]], jitter=0.5)
        rng = random.Random(4)
        sample = model.sample(rng, 0, 1)
        assert 1.0 <= sample <= 1.5


class TestSchedulers:
    def test_delay_senders(self):
        scheduler = DelaySenders([3], extra=10.0)
        rng = random.Random(0)
        assert scheduler.extra_delay(rng, 3, 0, None, 0.0) == 10.0
        assert scheduler.extra_delay(rng, 2, 0, None, 0.0) == 0.0

    def test_delay_matching(self):
        scheduler = DelayMatching(lambda s, d, p: p == "slow", extra=5.0)
        rng = random.Random(0)
        assert scheduler.extra_delay(rng, 0, 1, "slow", 0.0) == 5.0
        assert scheduler.extra_delay(rng, 0, 1, "fast", 0.0) == 0.0

    def test_random_jitter_bounded(self):
        scheduler = RandomJitterScheduler(2.0)
        rng = random.Random(5)
        assert all(
            0.0 <= scheduler.extra_delay(rng, 0, 1, None, 0.0) <= 2.0
            for _ in range(50)
        )

    def test_composed_sums(self):
        scheduler = ComposedScheduler(
            [DelaySenders([0], 1.0), DelaySenders([0], 2.0)]
        )
        rng = random.Random(0)
        assert scheduler.extra_delay(rng, 0, 1, None, 0.0) == 3.0


# -- runner semantics ------------------------------------------------------------------


class Relay(Protocol):
    """p0 starts a token; each process forwards to the next; last decides."""

    def on_start(self):
        if self.process_id == 0:
            return [Send(1, Token(hops=1))]
        return []

    def on_message(self, sender, payload):
        if not isinstance(payload, Token):
            return []
        nxt = self.process_id + 1
        if nxt < self.n:
            return [Send(nxt, Token(payload.hops + 1))]
        return [Decide(payload.hops, DecisionKind.FAST)]


class OneShot(Protocol):
    """Broadcasts at start; decides on first delivery."""

    def on_start(self):
        return [Broadcast(Token(0))]

    def on_message(self, sender, payload):
        return [Decide("done", DecisionKind.FAST)]


def build(config, protocol_cls, **kwargs):
    protocols = {pid: protocol_cls(pid, config) for pid in config.processes}
    return Simulation(config, protocols, **kwargs)


class TestRunnerDepthAccounting:
    def test_relay_depth_equals_chain_length(self):
        config = SystemConfig(4, 0)
        protocols = {pid: Relay(pid, config) for pid in config.processes}
        sim = Simulation(
            config,
            protocols,
            latency=ConstantLatency(1.0),
            seed=0,
        )
        result = sim.run_until(lambda s: 3 in s.stats.decisions)
        decision = result.decisions[3]
        assert decision.step == 3  # three message hops
        assert decision.value == 3

    def test_broadcast_self_delivery_depth_one(self):
        config = SystemConfig(3, 0)
        sim = build(config, OneShot, latency=ConstantLatency(1.0))
        result = sim.run_until_decided()
        assert all(d.step == 1 for d in result.decisions.values())

    def test_self_delivery_has_zero_delay(self):
        config = SystemConfig(3, 0)
        sim = build(config, OneShot, latency=ConstantLatency(5.0))
        result = sim.run_until_decided()
        # every process hears itself at t=0, before any remote message
        assert all(d.time == 0.0 for d in result.decisions.values())


class TestRunnerControl:
    def test_determinism_same_seed(self):
        config = SystemConfig(5, 0)
        r1 = build(config, OneShot, seed=42).run_until_decided()
        r2 = build(config, OneShot, seed=42).run_until_decided()
        assert r1.decisions == r2.decisions
        assert r1.end_time == r2.end_time
        assert r1.stats.messages_sent == r2.stats.messages_sent

    def test_deadlock_detection(self):
        class Mute(Protocol):
            def on_message(self, sender, payload):
                return []

        config = SystemConfig(3, 0)
        sim = build(config, Mute)
        with pytest.raises(SimulationDeadlock) as err:
            sim.run_until_decided()
        assert err.value.undecided == frozenset({0, 1, 2})

    def test_max_events_guard(self):
        class PingPong(Protocol):
            def on_start(self):
                return [Send(1 - self.process_id, Token(0))] if self.process_id == 0 else []

            def on_message(self, sender, payload):
                return [Send(sender, Token(0))]

        config = SystemConfig(2, 0)
        protocols = {pid: PingPong(pid, config) for pid in config.processes}
        sim = Simulation(config, protocols, max_events=100)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_decided()

    def test_wrong_protocol_cover_rejected(self):
        config = SystemConfig(3, 0)
        with pytest.raises(SimulationError):
            Simulation(config, {0: Relay(0, config)})

    def test_too_many_faulty_rejected(self):
        config = SystemConfig(3, 1)
        protocols = {pid: Relay(pid, config) for pid in config.processes}
        with pytest.raises(SimulationError):
            Simulation(config, protocols, faulty={0, 1})

    def test_run_to_quiescence_drains(self):
        config = SystemConfig(3, 0)
        sim = build(config, OneShot)
        result = sim.run_to_quiescence()
        assert result.drained
        assert result.stats.messages_delivered == 9  # 3 broadcasts x 3


class TestRunnerOutputsAndServices:
    def test_top_level_deliver_collected(self):
        class Upcaller(Protocol):
            def on_start(self):
                return [Deliver("tag", self.process_id, "v")]

            def on_message(self, sender, payload):
                return []

        config = SystemConfig(2, 0)
        sim = build(config, Upcaller)
        result = sim.run_to_quiescence()
        assert result.outputs[0][0].tag == "tag"
        assert result.outputs[1][0].value == "v"

    def test_service_call_and_reply(self):
        class EchoService(Service):
            def on_call(self, caller, payload, depth, time, reply_path=()):
                return [
                    ServiceReply(
                        caller, ("echo", payload), depth + 1, 0.5, reply_path
                    )
                ]

        class Caller(Protocol):
            def on_start(self):
                return [ServiceCall("echo", "hi")]

            def on_message(self, sender, payload):
                return [Decide(payload, DecisionKind.FAST)]

        config = SystemConfig(1, 0)
        sim = Simulation(
            config,
            {0: Caller(0, config)},
            services={"echo": EchoService()},
        )
        result = sim.run_until_decided()
        assert result.decisions[0].value == ("echo", "hi")
        assert result.decisions[0].step == 1  # call at depth 0, reply depth 1

    def test_missing_service_raises(self):
        class Caller(Protocol):
            def on_start(self):
                return [ServiceCall("nope", "x")]

            def on_message(self, sender, payload):
                return []

        config = SystemConfig(1, 0)
        sim = Simulation(config, {0: Caller(0, config)})
        with pytest.raises(SimulationError, match="no service"):
            sim.run_to_quiescence()

    def test_malformed_payload_logged_not_fatal(self):
        class Strict(Protocol):
            def on_start(self):
                if self.process_id == 0:
                    return [Send(1, "garbage")]
                return []

            def on_message(self, sender, payload):
                raise TypeError("bad")

        config = SystemConfig(2, 0)
        protocols = {pid: Strict(pid, config) for pid in config.processes}
        log = EventLog()
        Simulation(config, protocols, event_sink=log).run_to_quiescence()
        assert [
            e for e in log.of_type(LogEvent) if e.event == "malformed-message-dropped"
        ]


class TestSchedulerIntegration:
    def test_delayed_sender_arrives_last(self):
        arrivals = []

        class Recorder(Protocol):
            def on_start(self):
                return [Broadcast(Token(0))] if self.process_id != 2 else [Broadcast(Token(99))]

            def on_message(self, sender, payload):
                if self.process_id == 0:
                    arrivals.append(sender)
                return []

        config = SystemConfig(3, 0)
        protocols = {pid: Recorder(pid, config) for pid in config.processes}
        sim = Simulation(
            config,
            protocols,
            latency=ConstantLatency(1.0),
            scheduler=DelaySenders([2], extra=100.0),
        )
        sim.run_to_quiescence()
        assert arrivals[-1] == 2
