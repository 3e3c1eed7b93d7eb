"""The socket engine end to end: real processes, real sockets, real faults.

Two layers:

* unmarked unit tests for the link-fault algebra
  (:class:`~repro.net.faults.LinkPlan`, :func:`plan_from_plane`) and the
  inertness of :class:`~repro.net.faults.ProcessCrash` outside a node
  process — pure, no forking;
* ``@pytest.mark.net`` integration tests that fork node processes and run
  full consensus rounds over UDS/TCP, under a hard SIGALRM timeout (see
  ``conftest.py``) so a hung hub cannot stall the suite.

The parity test replays the frozen ``seed_decisions.json`` scenarios over
real sockets.  The wire engine shares protocols and inputs with the
simulator but not its clock, so per-seed *timing* differs: the assertion is
the paper's safety surface — agreement, validity, termination — not
step-for-step equality.
"""

import json
import multiprocessing
import pathlib
import random

import pytest

from repro.engine.events import (
    DecideEvent,
    DeliverEvent,
    EventLog,
    EventStats,
    SendEvent,
    TeeSink,
)
from repro.engine.faults import Crash, Equivocate, Silent
from repro.harness import (
    ENGINES,
    Scenario,
    bosco_strong,
    bosco_weak,
    brasileiro,
    dex_freq,
    dex_prv,
    izumi,
    twostep,
)
from repro.net import (
    CutAfter,
    DelayLink,
    DropLink,
    DuplicateLink,
    LinkPlan,
    NetCluster,
    ProcessCrash,
    ReorderLink,
    plan_from_plane,
)
from repro.types import DecisionKind
from repro.workloads.inputs import split, unanimous

DATA = pathlib.Path(__file__).parent / "data" / "seed_decisions.json"

# Same registries as the fixture replay in test_incremental_equiv.py: the
# parity test rebuilds the exact scenarios the fixture was recorded from.
SEED_ALGOS = {
    "dex-freq": dex_freq,
    "dex-prv": dex_prv,
    "bosco-weak": bosco_weak,
    "bosco-strong": bosco_strong,
    "izumi": izumi,
    "brasileiro": brasileiro,
    "twostep": twostep,
}
SEED_FAULTS = {
    None: lambda n: {},
    "silent": lambda n: {n - 1: Silent()},
    "crash": lambda n: {n - 1: Crash(budget=3)},
    "equivocate": lambda n: {n - 1: Equivocate(1, 2)},
}
SEED_INPUTS = {
    "unanimous": lambda n: unanimous(1, n),
}


def assert_no_leaks():
    """No worker processes or hub socket dirs left behind."""
    leaked = [p for p in multiprocessing.active_children() if "repro-net" in p.name]
    assert not leaked, f"leaked node processes: {leaked}"
    residue = list(pathlib.Path("/tmp").glob("repro-net-*"))
    assert not residue, f"leaked socket directories: {residue}"


class TestLinkPlan:
    def test_empty_plan_is_falsy_and_passes_everything(self):
        plan = LinkPlan()
        assert not plan
        assert plan.route(0, 1, random.Random(0)) == [0.0]

    def test_drop_link_full_probability_drops(self):
        plan = LinkPlan(per_source={3: [DropLink(1.0)]})
        assert plan.route(3, 0, random.Random(0)) == []
        assert plan.route(0, 3, random.Random(0)) == [0.0]  # inbound unaffected

    def test_drop_link_zero_probability_passes(self):
        plan = LinkPlan(everywhere=[DropLink(0.0)])
        assert plan.route(0, 1, random.Random(0)) == [0.0]

    def test_drop_link_validates_probability(self):
        with pytest.raises(ValueError):
            DropLink(1.5)

    def test_delay_link_adds_latency(self):
        plan = LinkPlan(everywhere=[DelayLink(extra=0.25)])
        assert plan.route(0, 1, random.Random(0)) == [0.25]

    def test_delay_link_rejects_negative(self):
        with pytest.raises(ValueError):
            DelayLink(extra=-0.1)

    def test_duplicate_link_multiplies_copies(self):
        plan = LinkPlan(everywhere=[DuplicateLink(probability=1.0, copies=3)])
        assert len(plan.route(0, 1, random.Random(0))) == 3

    def test_cut_after_budget_is_stateful_per_source(self):
        plan = LinkPlan(per_source={2: [CutAfter(budget=2)]})
        rng = random.Random(0)
        assert plan.route(2, 0, rng) == [0.0]
        assert plan.route(2, 1, rng) == [0.0]
        assert plan.route(2, 0, rng) == []  # budget exhausted
        assert plan.route(2, 1, rng) == []

    def test_faults_compose_drop_then_duplicate(self):
        plan = LinkPlan(
            per_source={0: [DropLink(1.0), DuplicateLink(copies=4)]}
        )
        assert plan.route(0, 1, random.Random(0)) == []

    def test_describe_names_the_chain(self):
        plan = LinkPlan(per_source={1: [DropLink(1.0), CutAfter(5)]})
        described = plan.describe()
        assert "DropLink" in described[1] and "CutAfter" in described[1]


class TestPlanFromPlane:
    def _plane(self, faults, n=7, t=1):
        from repro.engine.faults import FaultPlane
        from repro.types import SystemConfig

        return FaultPlane(SystemConfig(n, t), faults)

    def test_silent_becomes_total_drop(self):
        plan = plan_from_plane(self._plane({6: Silent()}))
        assert plan.route(6, 0, random.Random(0)) == []

    def test_crash_becomes_cut_after_budget(self):
        plan = plan_from_plane(self._plane({6: Crash(budget=2)}))
        rng = random.Random(0)
        assert plan.route(6, 0, rng) == [0.0]
        assert plan.route(6, 1, rng) == [0.0]
        assert plan.route(6, 2, rng) == []

    def test_byzantine_faults_ride_in_node_not_on_the_link(self):
        # Equivocate wraps the protocol inside the worker; the link plan
        # must leave its traffic alone.
        plan = plan_from_plane(self._plane({6: Equivocate(1, 2)}))
        assert plan.route(6, 0, random.Random(0)) == [0.0]

    def test_empty_plane_is_empty_plan(self):
        assert not plan_from_plane(self._plane({}))


class TestProcessCrashInert:
    def test_does_not_kill_outside_a_node_process(self):
        # The env marker is absent in the test process, so this must be a
        # no-op rather than os._exit'ing the pytest runner.
        ProcessCrash(after=0).maybe_kill(sent=100)

    def test_frozen(self):
        crash = ProcessCrash(after=3)
        with pytest.raises(Exception):
            crash.after = 5


@pytest.mark.net
class TestNetSmoke:
    def test_net_is_a_registered_engine(self):
        assert "net" in ENGINES

    def test_uds_n4_unanimous_decides_one_step(self, config4):
        result = Scenario(
            dex_freq(), unanimous(1, 4), seed=7, engine="net"
        ).run()
        assert result.all_correct_decided()
        assert result.agreement_holds()
        assert result.decided_value == 1
        assert_no_leaks()

    def test_uds_n7_unanimous_decides_one_step(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=1, engine="net").run()
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert {d.kind for d in result.correct_decisions.values()} == {
            DecisionKind.ONE_STEP
        }
        assert not result.timed_out
        assert result.exit_codes and all(
            code == 0 for code in result.exit_codes.values()
        )
        assert_no_leaks()

    def test_tcp_transport(self):
        result = Scenario(dex_freq(), unanimous(1, 4), seed=3, engine="net").run_net(
            timeout=20.0, transport="tcp"
        )
        assert result.transport == "tcp"
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert_no_leaks()

    def test_split_inputs_still_terminate(self):
        result = Scenario(dex_freq(), split(1, 2, 7, 3), seed=5, engine="net").run()
        assert result.all_correct_decided()
        assert result.agreement_holds()
        assert_no_leaks()


@pytest.mark.net
class TestNetEvents:
    def test_event_stream_reaches_sinks(self):
        log, stats = EventLog(), EventStats()
        result = Scenario(
            dex_freq(),
            unanimous(1, 7),
            seed=2,
            engine="net",
            event_sink=TeeSink(log, stats),
        ).run()
        assert result.all_correct_decided()
        assert any(isinstance(e, SendEvent) for e in log.events)
        assert any(isinstance(e, DeliverEvent) for e in log.events)
        decided = [e for e in log.events if isinstance(e, DecideEvent)]
        assert {e.pid for e in decided} == set(result.correct_decisions)
        assert stats.one_step_fraction == 1.0
        # The stream clock is wall-clock offsets from the run start.
        times = [e.time for e in log.events]
        assert times == sorted(times) and all(t >= 0.0 for t in times)


def _count_payload_decodes(monkeypatch):
    """Count this process's payload materializations.  The hub's frame
    decoders run ``lazy=True``; every non-lazy ``binary.decode`` here is an
    ``Opaque`` span turning into an object.  Forked nodes inherit the
    wrapper but count into their own memory."""
    from repro.codec import binary

    calls = {"decode": 0, "opaque": 0}
    real_decode, real_opaque = binary.decode, binary.Opaque.decode

    def counting_decode(data, lazy=False):
        calls["decode"] += not lazy
        return real_decode(data, lazy)

    def counting_opaque(self):
        calls["opaque"] += 1
        return real_opaque(self)

    monkeypatch.setattr(binary, "decode", counting_decode)
    monkeypatch.setattr(binary.Opaque, "decode", counting_opaque)
    return calls


@pytest.mark.net
class TestHubNeverDecodesRelayedPayloads:
    """The hub's data path (socket → route → heap → deliver → socket) costs
    zero payload decodes; a sink that reads payloads pays one per message."""

    def _service(self, event_sink=None):
        from repro.shard import ShardedService

        return ShardedService(
            n=7, shards=4, contention=0.0, seed=11, engine="net", event_sink=event_sink
        )

    def test_payload_blind_sinks_cost_zero_decodes(self, monkeypatch):
        calls = _count_payload_decodes(monkeypatch)
        stats = EventStats()
        report = self._service(stats).run(count=16, timeout=25.0)
        assert not report.divergence and report.commands == 16
        assert calls == {"decode": 0, "opaque": 0}
        # ... although every send was observed and charged to its shard.
        routed = report.result.stats.messages_sent
        assert stats.sends == routed > 0
        assert sum(row["sends"] for row in report.per_shard) == routed
        assert all(row["sends"] > 0 for row in report.per_shard)
        assert_no_leaks()

    def test_event_log_pays_one_decode_per_routed_message(self, monkeypatch):
        from repro.codec import Opaque

        calls = _count_payload_decodes(monkeypatch)
        log = EventLog()
        report = self._service(log).run(count=16, timeout=25.0)
        assert not report.divergence
        assert calls["decode"] == 0  # recording an event reads no payload
        sends = log.of_type(SendEvent)
        delivers = [e for e in log.of_type(DeliverEvent) if type(e.raw) is Opaque]
        assert len(sends) == report.result.stats.messages_sent
        sent = {id(e.payload): e for e in sends}
        assert calls["decode"] == len(sends)
        for deliver in delivers:
            send = sent[id(deliver.payload)]  # the very same object
            assert (send.pid, send.dst) == (deliver.sender, deliver.pid)
        assert len(delivers) > 0 and calls["decode"] == len(sends)
        assert_no_leaks()


class TestDuplicateHello:
    def test_second_dialer_cannot_replace_an_authenticated_link(self):
        # Regression: a second Hello claiming a connected pid used to
        # overwrite ``_conns[pid]`` — hijacking the link and leaking the
        # first socket.  Stub dialers over socketpairs, no forking.
        import socket
        import time

        from repro.engine.events import FaultEvent
        from repro.net.wire import CODEC_BINARY, FrameDecoder, Hello, encode_frame
        from repro.types import SystemConfig

        config = SystemConfig(4, 0)
        log = EventLog()
        cluster = NetCluster(
            config, {pid: None for pid in config.processes}, event_sink=log
        )
        hello = encode_frame(Hello(3, CODEC_BINARY), CODEC_BINARY)
        deadline = time.monotonic() + 1.0
        hub_side, dialers = [], []
        try:
            for _ in range(2):
                ours, theirs = socket.socketpair()
                hub_side.append(ours)
                dialers.append(theirs)
                theirs.sendall(hello)
                assert cluster._try_hello(ours, FrameDecoder(lazy=True), deadline)
            assert cluster._conns[3].sock is hub_side[0]
            assert hub_side[0].fileno() != -1
            assert hub_side[1].fileno() == -1  # the newcomer was closed
            assert dialers[1].recv(16) == b""  # ... and sees EOF
            assert [(e.pid, e.fault) for e in log.of_type(FaultEvent)] == [
                (3, "duplicate-hello")
            ]
        finally:
            for sock in hub_side + dialers:
                sock.close()


class TestHubWriteCannotDeadlock:
    def test_hub_drains_a_node_that_writes_without_reading(self):
        # Regression: a node writes from inside its handlers without
        # reading.  With both directions' socket buffers full the hub's
        # ``sendall`` waited for the node waiting for the hub, and the 1 s
        # send timeout then dropped a healthy replica.  Stub node on a
        # socketpair: megabytes each way, far beyond any socket buffer.
        import socket
        import threading

        from repro.net.cluster import _Conn
        from repro.net.wire import (
            CODEC_BINARY,
            FrameDecoder,
            MsgDeliver,
            MsgSend,
            encode_frame,
        )
        from repro.types import SystemConfig

        config = SystemConfig(4, 0)
        cluster = NetCluster(config, {pid: None for pid in config.processes})
        ours, theirs = socket.socketpair()
        ours.settimeout(1.0)
        theirs.settimeout(20.0)
        cluster._conns[2] = _Conn(2, ours, FrameDecoder(lazy=True), CODEC_BINARY)
        sends = 40_000
        upstream = encode_frame(MsgSend(2, 1, ("vote", 7, "x" * 40), 1), CODEC_BINARY)
        frames = [MsgDeliver(1, "y" * 200_000, 1)] * 10
        downstream = sum(len(encode_frame(f, CODEC_BINARY)) for f in frames)
        received = []

        def node():
            theirs.sendall(upstream * sends)  # never reads while writing
            got = 0
            while got < downstream:
                got += len(theirs.recv(1 << 20))
            received.append(got)

        thread = threading.Thread(target=node, daemon=True)
        thread.start()
        try:
            assert cluster._write_frames(2, frames) == frames
            thread.join(20.0)
            assert not thread.is_alive() and received == [downstream]
            assert 2 not in cluster._dead
            while cluster.stats.messages_sent < sends:  # the rest, by the pump
                cluster._pump(cluster._conns[2])
            assert len(cluster._heap) == sends
        finally:
            ours.close()
            theirs.close()


@pytest.mark.net
class TestNetFaults:
    def test_silent_node_over_the_wire(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Silent()}, seed=4, engine="net"
        ).run()
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert 6 not in result.correct_decisions
        assert_no_leaks()

    def test_crash_budget_over_the_wire(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Crash(budget=3)}, seed=4,
            engine="net",
        ).run()
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert_no_leaks()

    def test_equivocator_over_the_wire(self):
        result = Scenario(
            dex_freq(),
            unanimous(1, 7),
            faults={6: Equivocate(1, 2)},
            seed=4,
            engine="net",
        ).run()
        assert result.all_correct_decided()
        assert result.agreement_holds()
        assert result.decided_value == 1
        assert_no_leaks()

    def test_ambient_link_chaos_still_decides(self):
        # Duplicated and delayed (but not dropped) traffic: liveness and
        # safety must survive; the hub dedups nothing, the protocol must.
        scenario = Scenario(dex_freq(), unanimous(1, 7), seed=9)
        protocols, services = scenario.components()
        cluster = NetCluster(
            scenario.config,
            protocols,
            services=services,
            seed=9,
            link_plan=LinkPlan(
                everywhere=[DuplicateLink(probability=0.5, copies=2), DelayLink(0.001, jitter=0.002)]
            ),
        )
        result = cluster.run(timeout=20.0)
        assert result.all_correct_decided()
        assert result.agreement_holds()
        assert result.decided_value == 1
        assert_no_leaks()


@pytest.mark.net(timeout=120)
class TestNetRobustness:
    def test_crashed_plus_silent_terminates_with_partial_decisions(self):
        # One node killed by chaos at its first outgoing frame, one silent:
        # the hub must detect the stall, return partial decisions, and reap
        # every child.  twostep needs all n-t echoes, so the correct nodes
        # other than the victims still decide; pid 6 never can.
        scenario = Scenario(
            twostep(), unanimous(1, 7), faults={5: Silent()}, seed=11
        )
        protocols, services = scenario.components()
        cluster = NetCluster(
            scenario.config,
            protocols,
            faulty=frozenset({5}),
            services=services,
            seed=11,
            link_plan=plan_from_plane(scenario._plane),
            chaos={6: ProcessCrash(after=0)},
        )
        result = cluster.run(timeout=8.0)
        decided = set(result.correct_decisions)
        assert decided == {0, 1, 2, 3, 4}
        assert result.agreement_holds()
        assert result.decided_value == 1
        assert result.timed_out  # partial: an undecided correct pid remains
        assert result.exit_codes[6] == 17  # ProcessCrash exit_code default
        assert_no_leaks()


@pytest.mark.net(timeout=420)
class TestSeedParityOverSockets:
    """Replay the frozen n=7 fixture scenarios over real sockets.

    Timing-dependent fields (kinds, steps, message counts) may legitimately
    differ from the simulator; agreement, validity, and who decides must
    not.  Every n=7 fixture record is unanimous-input, so validity pins the
    decided value exactly.
    """

    def test_at_least_thirty_scenarios_agree_with_the_simulator(self):
        records = [rec for rec in json.loads(DATA.read_text()) if rec["n"] == 7]
        assert len(records) >= 30
        for rec in records:
            assert rec["inputs"] == "unanimous"  # value pinned by validity
            scenario = Scenario(
                SEED_ALGOS[rec["algorithm"]](),
                SEED_INPUTS[rec["inputs"]](rec["n"]),
                faults=SEED_FAULTS[rec["fault"]](rec["n"]),
                seed=rec["seed"],
                engine="net",
            )
            result = scenario.run()
            context = (rec["algorithm"], rec["fault"], rec["seed"])
            assert result.all_correct_decided(), context
            assert result.agreement_holds(), context
            assert result.decided_value == 1, context
            sim_decided = {int(pid) for pid in rec["decisions"]}
            assert set(result.correct_decisions) == sim_decided, context
        assert_no_leaks()


class TestReorderLink:
    """Pure reordering: every message arrives exactly once, later."""

    def test_full_probability_delays_within_window(self):
        plan = LinkPlan(everywhere=[ReorderLink(1.0, window=0.005)])
        rng = random.Random(0)
        for _ in range(20):
            (delay,) = plan.route(0, 1, rng)
            assert 0.0 <= delay <= 0.005

    def test_zero_probability_passes_immediately(self):
        plan = LinkPlan(everywhere=[ReorderLink(0.0, window=0.005)])
        assert plan.route(0, 1, random.Random(0)) == [0.0]

    def test_never_drops_or_duplicates(self):
        plan = LinkPlan(everywhere=[ReorderLink(0.5, window=0.01)])
        rng = random.Random(1)
        for _ in range(50):
            assert len(plan.route(0, 1, rng)) == 1

    def test_validates_probability_and_window(self):
        with pytest.raises(ValueError):
            ReorderLink(1.5)
        with pytest.raises(ValueError):
            ReorderLink(0.5, window=0.0)

    def test_describe_names_the_parameters(self):
        plan = LinkPlan(per_source={2: [ReorderLink(0.7, window=0.004)]})
        described = plan.describe()
        assert "ReorderLink" in described[2]
        assert "p=0.7" in described[2]


@pytest.mark.net
class TestNetReordering:
    def test_reordering_alone_never_violates_agreement(self):
        # Aggressive reordering on every link of a *contended* round: the
        # algorithm is asynchronous, so pure reordering (no loss, no
        # duplication) must leave agreement and termination intact.
        scenario = Scenario(dex_freq(), split(1, 2, 7, 3), seed=13)
        protocols, services = scenario.components()
        cluster = NetCluster(
            scenario.config,
            protocols,
            services=services,
            seed=13,
            link_plan=LinkPlan(everywhere=[ReorderLink(0.7, window=0.004)]),
        )
        result = cluster.run(timeout=20.0)
        assert result.agreement_holds()
        assert result.all_correct_decided()
        assert result.decided_value in (1, 2)
        assert_no_leaks()


@pytest.mark.net
class TestDeliveryBatching:
    def test_batched_mode_decides_identically_with_fewer_frames(self):
        # Coalescing co-scheduled deliveries into MsgDeliverBatch frames
        # must be invisible to the protocol: same decision either way.
        # (Exact message *counts* are wall-clock dependent — nodes keep
        # gossiping until the hub winds the run down — so the frame
        # assertion is a strict ordering, not a ratio.)
        results = {}
        for batched in (False, True):
            result = Scenario(
                dex_freq(), unanimous(1, 7), seed=21, engine="net"
            ).run_net(timeout=20.0, batch_deliveries=batched)
            assert result.all_correct_decided()
            assert result.decided_value == 1
            results[batched] = result
        # unbatched: one hub frame per delivered message (plus control).
        assert results[False].hub_frames >= results[False].stats.messages_delivered
        # batched: co-scheduled deliveries coalesce, far fewer frames.
        assert results[True].hub_frames < results[True].stats.messages_delivered
        assert results[True].hub_frames < results[False].hub_frames
        assert_no_leaks()


@pytest.mark.net
class TestLognormalJitter:
    def test_lognormal_hub_jitter_runs_to_decision(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), seed=6, engine="net",
            net_jitter="lognormal",
        ).run()
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert_no_leaks()
