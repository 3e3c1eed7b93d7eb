"""Tests for Identical Broadcast (paper appendix, Theorem 4 + Figure 2)."""

import pytest

from repro.broadcast.idb import DELIVER_TAG, IdbEcho, IdbInit, IdenticalBroadcast
from repro.engine.events import DeliverEvent, EventLog, OutputEvent
from repro.errors import ResilienceError
from repro.runtime.effects import Send
from repro.runtime.protocol import Protocol
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.runner import Simulation
from repro.types import SystemConfig


class EquivocatingInitSender(Protocol):
    """Byzantine sender: different ``init`` values to different processes —
    exactly the Figure 2 scenario."""

    def __init__(self, process_id, config, value_for):
        super().__init__(process_id, config)
        self.value_for = value_for

    def on_start(self):
        return [
            Send(dst, IdbInit(self.value_for(dst)))
            for dst in self.config.processes
        ]

    def on_message(self, sender, payload):
        return []


def idb_system(config, byzantine=None, seed=0, latency=None):
    """All-correct IDB nodes broadcasting their pid as value, except
    overridden byzantine behaviors."""
    byzantine = byzantine or {}
    protocols = {}
    for pid in config.processes:
        if pid in byzantine:
            protocols[pid] = byzantine[pid]
        else:
            protocols[pid] = IdenticalBroadcast(pid, config, initial_value=("v", pid))
    return Simulation(
        config,
        protocols,
        faulty=frozenset(byzantine),
        seed=seed,
        latency=latency or UniformLatency(),
    )


def deliveries(result, pid):
    """{origin: value} Id-Received by ``pid``."""
    return {
        d.sender: d.value
        for d in result.outputs[pid]
        if d.tag == DELIVER_TAG
    }


class TestResilience:
    def test_requires_n_gt_4t(self):
        with pytest.raises(ResilienceError):
            IdenticalBroadcast(0, SystemConfig(4, 1))
        IdenticalBroadcast(0, SystemConfig(5, 1))


class TestTermination:
    @pytest.mark.parametrize("n,t", [(5, 1), (9, 2), (7, 1)])
    def test_all_correct_deliver_all_correct_senders(self, n, t):
        config = SystemConfig(n, t)
        result = idb_system(config, seed=n).run_to_quiescence()
        for pid in config.processes:
            got = deliveries(result, pid)
            assert set(got) == set(config.processes)
            assert all(got[j] == ("v", j) for j in config.processes)

    def test_termination_with_silent_faults(self):
        config = SystemConfig(9, 2)

        class Quiet(Protocol):
            def on_message(self, sender, payload):
                return []

        byz = {7: Quiet(7, config), 8: Quiet(8, config)}
        result = idb_system(config, byzantine=byz, seed=3).run_to_quiescence()
        for pid in range(7):
            got = deliveries(result, pid)
            assert set(range(7)) <= set(got)


class TestAgreementFigure2:
    @pytest.mark.parametrize("seed", range(6))
    def test_equivocating_sender_delivers_identically(self, seed):
        """Figure 2: P3 faulty sends different messages to different
        processes, yet all correct processes Id-Receive the same one."""
        config = SystemConfig(5, 1)
        byz_pid = 3
        byz = EquivocatingInitSender(
            byz_pid, config, value_for=lambda dst: "A" if dst % 2 == 0 else "B"
        )
        result = idb_system(config, byzantine={byz_pid: byz}, seed=seed).run_to_quiescence()
        values = set()
        for pid in config.processes:
            if pid == byz_pid:
                continue
            got = deliveries(result, pid)
            if byz_pid in got:
                values.add(got[byz_pid])
        assert len(values) <= 1, f"correct processes accepted {values}"

    @pytest.mark.parametrize("seed", range(4))
    def test_equivocation_larger_system(self, seed):
        config = SystemConfig(9, 2)
        byz = {
            7: EquivocatingInitSender(7, config, lambda d: ("x", d % 2)),
            8: EquivocatingInitSender(8, config, lambda d: ("y", d % 3)),
        }
        result = idb_system(config, byzantine=byz, seed=seed).run_to_quiescence()
        for origin in (7, 8):
            values = {
                deliveries(result, pid)[origin]
                for pid in range(7)
                if origin in deliveries(result, pid)
            }
            assert len(values) <= 1


class TestValidity:
    def test_deliver_at_most_once_per_origin(self):
        config = SystemConfig(5, 1)
        result = idb_system(config, seed=1).run_to_quiescence()
        for pid in config.processes:
            origins = [d.sender for d in result.outputs[pid] if d.tag == DELIVER_TAG]
            assert len(origins) == len(set(origins))

    def test_only_sent_messages_delivered(self):
        config = SystemConfig(5, 1)
        result = idb_system(config, seed=2).run_to_quiescence()
        for pid in config.processes:
            for origin, value in deliveries(result, pid).items():
                assert value == ("v", origin)

    def test_forged_echo_storm_cannot_forge_delivery(self):
        """t Byzantine echoes for a phantom message never reach n - t."""
        config = SystemConfig(5, 1)

        class EchoForger(Protocol):
            def on_start(self):
                # claim that p0 sent "FAKE" — only 1 < n - t witnesses
                return [
                    Send(dst, IdbEcho("FAKE", 0)) for dst in self.config.processes
                ]

            def on_message(self, sender, payload):
                return []

        byz = {4: EchoForger(4, config)}
        result = idb_system(config, byzantine=byz, seed=5).run_to_quiescence()
        for pid in range(4):
            assert deliveries(result, pid).get(0) == ("v", 0)


class TestStepCost:
    def test_id_receive_costs_two_plain_steps(self):
        """The appendix claim: one IDB step = two standard steps."""
        config = SystemConfig(5, 1)
        depths = {}

        class Probe(IdenticalBroadcast):
            def on_message(self, sender, payload):
                return super().on_message(sender, payload)

        protocols = {
            pid: IdenticalBroadcast(pid, config, initial_value=pid)
            for pid in config.processes
        }
        log = EventLog()
        sim = Simulation(
            config, protocols, latency=ConstantLatency(1.0), event_sink=log
        )
        sim.run_to_quiescence()
        for pid in config.processes:
            records = [
                e
                for e in log.of_type(OutputEvent)
                if e.pid == pid and e.tag == DELIVER_TAG
            ]
            assert records, "no deliveries traced"
        # With constant latency nothing needs echo amplification: every
        # delivery is triggered by a depth-2 echo.
        echo_depths = {
            e.depth
            for e in log.of_type(DeliverEvent)
            if isinstance(e.payload, IdbEcho)
        }
        assert echo_depths == {2}

    def test_message_complexity_quadratic(self):
        """Each broadcast costs one init broadcast + n echo broadcasts."""
        config = SystemConfig(5, 1)
        result = idb_system(config, latency=ConstantLatency(1.0)).run_to_quiescence()
        n = config.n
        # n init broadcasts (n msgs each) + n*n echo broadcasts (n msgs each)
        assert result.stats.messages_sent == n * n + n * n * n


class TestStateAccessors:
    def test_accepted_origins_tracking(self):
        config = SystemConfig(5, 1)
        sim = idb_system(config, seed=9)
        result = sim.run_to_quiescence()
        assert result is not None
        node = sim._states[0].protocol
        assert node.accepted_origins == frozenset(config.processes)


class TestWitnessBookLifecycle:
    """The witness book is per origin and lives until that origin's accept."""

    VALUE = ("v", 3)

    def node(self):
        return IdenticalBroadcast(0, SystemConfig(7, 1))

    def echo(self, node, sender, value=None, origin=3):
        return node.on_message(sender, IdbEcho(value or self.VALUE, origin))

    def test_book_is_dropped_at_accept_and_later_echoes_early_out(self):
        node = self.node()
        for sender in range(4):
            assert self.echo(node, sender) == []
        (amplified,) = self.echo(node, 4)  # n - 2t = 5 witnesses
        assert amplified.payload == IdbEcho(self.VALUE, 3)
        assert node._witnesses == {3: {self.VALUE: {0, 1, 2, 3, 4}}}
        (delivered,) = self.echo(node, 5)  # n - t = 6 witnesses
        assert (delivered.tag, delivered.sender, delivered.value) == (
            DELIVER_TAG,
            3,
            self.VALUE,
        )
        assert node._witnesses == {}
        assert self.echo(node, 6) == []  # the seventh echo finds nothing to do
        assert node._witnesses == {}
        assert node.accepted_origins == {3}

    def test_equivocated_value_goes_with_the_accepted_one(self):
        node = self.node()
        self.echo(node, 6, value=("v", "other"))  # the liar's second value
        for sender in range(6):
            self.echo(node, sender)
        assert node.accepted_origins == {3}
        assert node._witnesses == {}
        assert self.echo(node, 5, value=("v", "other")) == []
        assert node._witnesses == {}

    def test_echo_for_an_origin_that_is_no_process_is_ignored(self):
        """Such a book could never reach ``n - 2t`` witnesses with ``<= t``
        liars, and no accept would ever free it."""
        node = self.node()
        for origin in (7, -1, "p3", None):
            assert self.echo(node, 6, origin=origin) == []
        assert node._witnesses == {} and node._echoed == set()

    def test_inert_once_every_origin_is_echoed(self):
        node = self.node()
        for sender in range(6):
            node.on_message(sender, IdbInit(("v", sender)))
        assert not node.inert  # origin 6 has not been heard of
        for sender in range(5):
            self.echo(node, sender, value=("v", 6), origin=6)  # amplification
        assert node.inert
        # inert is about sending: the accept of origin 6 is still to come
        assert node.on_message(6, IdbInit(("v", 6))) == []
        (delivered,) = self.echo(node, 5, value=("v", 6), origin=6)
        assert delivered.tag == DELIVER_TAG
