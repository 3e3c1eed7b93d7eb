"""The socket engine end to end: real processes, real sockets, real faults.

Two layers:

* unmarked unit tests for the link-fault algebra
  (:class:`~repro.net.faults.LinkPlan`) and the inertness of
  :class:`~repro.net.faults.ProcessCrash` outside a node process — pure,
  no forking;
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
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import (
    DecideEvent,
    DeliverEvent,
    EventLog,
    SendEvent,
    TeeSink,
)
from repro.engine.faults import Crash, Equivocate, Silent
from repro.errors import ConfigurationError
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
)
from repro.net.wire import CODEC_BINARY
from repro.types import DecisionKind
from repro.workloads.inputs import split, unanimous

from .conftest import leaked_socket_dirs
from .test_codec import MALFORMED
from .test_net_wire import binary_frame, pickle_frame, tagged_pickle_frame

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
    residue = leaked_socket_dirs()
    assert not residue, f"leaked socket directories: {residue}"


class TestLeakCheck:
    def test_only_this_sessions_socket_dirs_count(self):
        # A run elsewhere on the machine (a bench beside the tests) binds
        # in the system temp dir; one of this session's runs binds here.
        foreign = pathlib.Path(tempfile.mkdtemp(prefix="repro-net-", dir="/tmp"))
        own = pathlib.Path(tempfile.mkdtemp(prefix="repro-net-"))
        try:
            assert leaked_socket_dirs() == [own]
        finally:
            foreign.rmdir()
            own.rmdir()


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


class TestLinkPlanCleanSource:
    """A source with no fault chain is answered at once — the one on-time
    copy, no generator, and no RNG draw, as before (seeded streams must not
    move) — and the answer is the chain walk's."""

    @staticmethod
    def _chain_walk(plan, src, dst, rng):
        copies = [0.0]
        for fault in plan.chain_for(src):
            copies = [b + e for b in copies for e in fault.deliveries(src, dst, rng)]
        return copies

    @pytest.mark.parametrize(
        "plan",
        [
            LinkPlan(),
            LinkPlan(per_source={3: [DropLink(1.0)]}),
            LinkPlan(per_source={1: [], 3: [ReorderLink(0.5)]}),
        ],
        ids=["empty", "other-source", "empty-chain"],
    )
    def test_no_draw_and_the_chain_walks_answer(self, plan):
        rng = random.Random(5)
        before = rng.getstate()
        for dst in range(4):
            copies = plan.route(1, dst, rng)
            assert copies == [0.0] == self._chain_walk(plan, 1, dst, random.Random(5))
        assert rng.getstate() == before
        first, second = plan.route(1, 0, rng), plan.route(1, 0, rng)
        first.append(9.9)  # each caller owns its answer
        assert second == [0.0] and plan.route(1, 0, rng) == [0.0]

    def test_an_everywhere_fault_still_draws_per_destination(self):
        plan = LinkPlan(per_source={3: [DropLink(1.0)]}, everywhere=[ReorderLink(0.5, 0.01)])
        rng, twin = random.Random(9), random.Random(9)
        routed = [plan.route(1, dst, rng) for dst in range(6)]
        assert routed == [self._chain_walk(plan, 1, dst, twin) for dst in range(6)]
        assert rng.getstate() == twin.getstate() != random.Random(9).getstate()
        assert len({tuple(copies) for copies in routed}) > 1  # six draws, not one
        assert plan.route(3, 0, rng) == []  # and the faulty source is still faulty

    def test_a_per_source_fault_is_not_skipped(self):
        plan = LinkPlan(per_source={2: [CutAfter(budget=1)]})
        rng = random.Random(0)
        assert [plan.route(2, dst, rng) for dst in range(3)] == [[0.0], [], []]
        assert plan.route(1, 0, rng) == [0.0]


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
        result = Scenario(dex_freq(), unanimous(1, 4), seed=3, engine="net").run(
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

    def test_every_message_kind_runs_the_cluster_to_a_decision(self):
        # The contended run crosses every message kind (proposals, IDB, the
        # underlying consensus); its decided value is a race between the two
        # proposals, so the value is pinned on the thin-split run, where
        # every view's most frequent value is 1.
        for inputs, admissible in (([1, 2, 1, 2, 1, 2, 1], {1, 2}), (split(1, 2, 7, 1), {1})):
            result = Scenario(dex_freq(), inputs, seed=7, engine="net").run(timeout=20.0)
            assert not result.timed_out
            assert result.exit_codes and set(result.exit_codes.values()) == {0}
            assert result.all_correct_decided()
            assert result.decided_value in admissible
        assert_no_leaks()


@pytest.mark.net
class TestNetEvents:
    def test_event_stream_reaches_sinks(self):
        log, copy = EventLog(), EventLog()
        result = Scenario(
            dex_freq(),
            unanimous(1, 7),
            seed=2,
            engine="net",
            event_sink=TeeSink(log, copy),
        ).run()
        assert result.all_correct_decided()
        assert any(isinstance(e, SendEvent) for e in log.events)
        assert any(isinstance(e, DeliverEvent) for e in log.events)
        decided = [e for e in log.events if isinstance(e, DecideEvent)]
        assert {e.pid for e in decided} == set(result.correct_decisions)
        assert all(e.step <= 1 for e in log.decisions().values())
        assert copy.events == log.events
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
    zero payload decodes; a sink that reads payloads pays one per frame the
    hub took in."""

    def _service(self, event_sink=None):
        from repro.shard import ShardedService

        return ShardedService(
            n=7, shards=4, contention=0.0, seed=11, engine="net", event_sink=event_sink
        )

    def test_payload_blind_sinks_cost_zero_decodes(self, monkeypatch):
        calls = _count_payload_decodes(monkeypatch)
        log = EventLog()
        report = self._service(log).run(count=16, timeout=25.0)
        assert not report.divergence and report.commands == 16
        assert calls == {"decode": 0, "opaque": 0}
        # ... although every send and delivery was observed and counted.
        totals = report.result.stats
        sends, delivers = len(log.of_type(SendEvent)), len(log.of_type(DeliverEvent))
        assert report.aggregate["sends"] == totals.messages_sent == sends > 0
        assert report.aggregate["delivers"] == totals.messages_delivered == delivers > 0
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
        # One decode per ingressed *frame*: the n sends a broadcast frame
        # stood for share its span, a point-to-point send has its own.
        frames = {id(e.raw): (e.pid, e.depth) for e in sends}
        sent = {(e.pid, e.dst, id(e.payload)): e for e in sends}
        assert calls["decode"] == len(frames) <= len(sends)
        assert len(frames) * 7 == len(sends)  # this service only broadcasts
        for deliver in delivers:
            # the very same object the matching send decoded
            assert (deliver.sender, deliver.pid, id(deliver.payload)) in sent
        assert len(delivers) > 0 and calls["decode"] == len(frames)
        assert_no_leaks()


# -- the hub data plane on stub sockets: no forking, the real selector loop -------------


def _hub0(event_sink=None, n=4, link_plan=None):
    """Hub 0's data plane, never run: tests attach stub links and poll it."""
    from repro.types import SystemConfig

    config = SystemConfig(n, 0)
    return NetCluster(
        config,
        {pid: None for pid in config.processes},
        event_sink=event_sink,
        link_plan=link_plan,
    )


def _data_hub(tmp_path, n=4):
    """Hub 1 of a mesh (same plane, a data hub's extras)."""
    import socket

    from repro.mesh import HubWorker

    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(tmp_path / "hub1.sock"))
    listener.listen(8)
    return HubWorker(1, n, listener, mean_delay=0.0)


_STUB_PEERS: list = []


@pytest.fixture(autouse=True)
def _close_stub_peers():
    """Hang up whatever stub peers a test left connected."""
    yield
    while _STUB_PEERS:
        _STUB_PEERS.pop().close()


def _stub_link(plane, first):
    """Attach one socketpair end to ``plane`` as a fresh (pending) link whose
    peer opens with ``first`` — a message, or raw ``bytes``; returns
    ``(hub-side link, peer)`` — the peer a bare, blocking :class:`HubLink`,
    as a real dialer's would be."""
    import socket

    from repro.net.cluster import HubLink

    ours, theirs = socket.socketpair()
    theirs.settimeout(20.0)
    link, peer = HubLink(ours), HubLink(theirs, lazy=False)
    _STUB_PEERS.append(peer)
    plane._attach(link)
    if isinstance(first, bytes):
        peer.sock.sendall(first)
    else:
        assert peer.send(first)
    return link, peer


def _serve(plane, until, timeout=20.0):
    """Turn ``plane``'s loop (sockets only, no deliveries) until ``until()``."""
    import time

    deadline = time.monotonic() + timeout
    while not until():
        assert time.monotonic() < deadline, "the plane never got there"
        plane._poll(0.01)


def _stub_node(plane, pid):
    from repro.net.wire import Hello

    link, peer = _stub_link(plane, Hello(pid, CODEC_BINARY))
    _serve(plane, lambda: plane._nodes.get(pid) is link)
    return link, peer


def _drain(link, count, timeout=5.0):
    """Read ``count`` frames off a bare link, with a hard deadline."""
    import time

    got = []
    link.sock.settimeout(0.2)
    deadline = time.monotonic() + timeout
    while len(got) < count:
        assert time.monotonic() < deadline, f"only {len(got)}/{count} frames"
        try:
            data = link.sock.recv(65536)
        except TimeoutError:
            continue
        assert data, "hub closed the connection early"
        got.extend(link.decoder.feed(data))
    return got


class TestDuplicateHello:
    """One accept → classify → authenticate path: what hub 0 refuses, a data
    hub refuses.  Hub 0 reports through its event sink, a data hub through a
    fault record up its control link."""

    def _planes(self, tmp_path):
        from repro.engine.events import FaultEvent
        from repro.mesh import CONTROL_LINK, HubHello

        log = EventLog()
        yield _hub0(log), lambda count: [
            (e.pid, e.fault) for e in log.of_type(FaultEvent)
        ]
        hub = _data_hub(tmp_path)
        _, control = _stub_link(hub, HubHello(CONTROL_LINK))
        _serve(hub, lambda: hub._control is not None)
        yield hub, lambda count: [
            (m.pid, m.event) for m in _drain(control, count)
        ]
        control.close()

    def test_second_dialer_cannot_replace_an_authenticated_link(self, tmp_path):
        # Regression: a second Hello claiming a connected pid used to
        # replace the authenticated link (star: hijack and leak; data hub:
        # close the real one).  Stub dialers over socketpairs, no forking.
        from repro.net.wire import CODEC_BINARY, Hello

        for plane, faults in self._planes(tmp_path):
            first, peer = _stub_node(plane, 3)
            second, intruder = _stub_link(plane, Hello(3, CODEC_BINARY))
            _serve(plane, lambda: second.kind == "closed")
            assert plane._nodes[3] is first and first.kind == "node"
            assert first.sock.fileno() != -1
            assert second.sock.fileno() == -1  # the newcomer was closed
            assert intruder.sock.recv(16) == b""  # ... and sees EOF
            assert faults(1) == [(3, "duplicate-hello")]
            # once the old link has hit EOF, a restarted node is admitted
            peer.close()
            _serve(plane, lambda: 3 not in plane._nodes)
            again, _ = _stub_node(plane, 3)
            assert plane._nodes[3] is again
            plane._close()

    def test_pid_outside_the_cluster_is_refused(self, tmp_path):
        # A data hub used to register Hello(pid=999) and count it toward
        # HubReady; hub 0 always range-checked.  1.0 passed the range check
        # and raised TypeError out of the hub loop at its first broadcast;
        # True was admitted as an alias of pid 1, refusing the real node 1.
        from repro.net.wire import CODEC_BINARY, Hello

        for plane, faults in self._planes(tmp_path):
            for pid in (999, -1, 1.0, True):
                link, dialer = _stub_link(plane, Hello(pid, CODEC_BINARY))
                _serve(plane, lambda: link.kind == "closed")
                assert dialer.sock.recv(16) == b""
            assert not plane._nodes
            assert faults(4) == [(-1, "hello-refused")] * 4
            node, _ = _stub_node(plane, 1)
            assert plane._nodes[1] is node and node.kind == "node"
            plane._close()


    def test_a_malformed_frame_costs_only_its_own_link(self, tmp_path):
        # A dialer speaking another wire version is dropped with the cause
        # attached; it used to raise out of the hub's loop.
        for plane, faults in self._planes(tmp_path):
            node, _ = _stub_node(plane, 1)
            link, dialer = _stub_node(plane, 2)
            dialer.sock.sendall(b"\x00\x00\x00\x02\x63\x01")  # wire version 99
            _serve(plane, lambda: link.kind == "closed")
            assert faults(1) == [(2, "wire-error")]
            # A pickle under the reserved codec id 1 as a dialer's first
            # frame: refused unread, before the link is ever classified.
            pending, _ = _stub_link(plane, pickle_frame(1))
            _serve(plane, lambda: pending.kind == "closed")
            assert faults(1)[-1:] == [(-1, "wire-error")]
            # ... and a pickle under the binary codec's reserved tag 0x0E
            pending, _ = _stub_link(plane, tagged_pickle_frame())
            _serve(plane, lambda: pending.kind == "closed")
            assert faults(1)[-1:] == [(-1, "wire-error")]
            assert plane._nodes[1] is node and node.kind == "node"
            plane._close()

    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_an_undecodable_first_frame_costs_only_its_own_link(self, tmp_path, payload):
        # Each of these escaped the hub's loop as a non-wire error (the
        # codec raised CodecError, UnicodeDecodeError, TypeError or
        # RecursionError), so one unauthenticated dialer stopped the run.
        for plane, faults in self._planes(tmp_path):
            node, _ = _stub_node(plane, 1)
            pending, _ = _stub_link(plane, binary_frame(payload))
            _serve(plane, lambda: pending.kind == "closed")
            assert faults(1) == [(-1, "wire-error")]
            assert plane._nodes[1] is node and node.kind == "node"
            plane._close()

    def test_a_send_to_no_process_costs_only_its_own_link(self, tmp_path):
        # An authenticated node's MsgSend whose dst is a list used to be
        # queued and to raise "unhashable type" in the delivery sweep; one
        # to 1.0 raised TypeError out of the hub loop at ingress, and one to
        # True was delivered to pid 1.
        import time

        from repro.net.wire import MsgSend

        for case, dst in enumerate(([1], 1.0, True)):
            (tmp_path / str(case)).mkdir()
            for plane, faults in self._planes(tmp_path / str(case)):
                node, _ = _stub_node(plane, 1)
                link, peer = _stub_node(plane, 2)
                assert peer.send(MsgSend(0, dst, 5, 1))
                _serve(plane, lambda: link.kind == "closed" or plane.sent)
                plane._deliver_due(time.monotonic() + 60.0)
                assert link.kind == "closed"
                assert faults(1) == [(2, "wire-error")]
                assert plane._nodes[1] is node and node.kind == "node"
                plane._close()


def _oracle_hub(event_sink=None):
    """Hub 0 of ``n=4, t=1`` hosting the oracle service (quorum 3)."""
    from repro.types import SystemConfig
    from repro.underlying.oracle import SERVICE_NAME, OracleService

    config = SystemConfig(4, 1)
    return NetCluster(
        config,
        {pid: None for pid in config.processes},
        services={SERVICE_NAME: OracleService(config)},
        event_sink=event_sink,
    )


class TestHubZeroBooks:
    """What a node reports up its link is booked on hub 0 the way every
    in-process engine books it: first decision only, each output, each
    service call and each log record, each with its event, in arrival order."""

    def test_node_frames_are_booked_and_streamed(self):
        from repro.engine.events import LogEvent, OutputEvent, ServiceEvent
        from repro.net.wire import MsgDecide, MsgLog, MsgOutput, MsgService
        from repro.runtime.effects import Deliver, ServiceCall
        from repro.types import Decision
        from repro.underlying.oracle import SERVICE_NAME, OracleProposal

        log = EventLog()
        cluster = _oracle_hub(log)
        _, peer = _stub_node(cluster, 2)
        proposal = OracleProposal((0, 3), 7)
        try:
            assert peer.send(MsgDecide(2, "v", DecisionKind.ONE_STEP, 3))
            assert peer.send(MsgDecide(2, "w", DecisionKind.TWO_STEP, 5))  # not booked
            assert peer.send(MsgOutput(2, "idb", 1, "x"))
            assert peer.send(MsgService(2, ServiceCall(SERVICE_NAME, proposal, ("uc",)), 4))
            assert peer.send(MsgLog(2, "shard.open", {"shard": 0, "slot": 3, "size": 1}))
            _serve(cluster, lambda: cluster.frames_in >= 5)
            decide, output, service, record = log.events
            assert decide == DecideEvent(decide.time, 2, "v", DecisionKind.ONE_STEP, 3)
            assert output == OutputEvent(output.time, 2, "idb", 1, "x")
            assert service == ServiceEvent(service.time, 2, SERVICE_NAME, proposal)
            assert record == LogEvent(
                record.time, 2, "shard.open", {"shard": 0, "slot": 3, "size": 1}
            )
            times = [e.time for e in log.events]
            assert 0.0 <= times[0] and times == sorted(times)
            assert cluster.decisions == {
                2: Decision("v", DecisionKind.ONE_STEP, step=3, time=decide.time)
            }
            assert cluster.stats.decisions == cluster.decisions
            assert cluster.outputs == {0: [], 1: [], 2: [Deliver("idb", 1, "x")], 3: []}
            assert cluster._heap == []  # one call of three: no oracle reply yet
        finally:
            peer.close()
            cluster._close()

    def test_a_hostile_decision_costs_only_its_own_link(self):
        # A decision kind no DecisionKind (here a list) used to be booked
        # and then raise in a sink, inside hub 0's loop.
        from repro.engine.events import FaultEvent
        from repro.net.wire import MsgDecide

        log = EventLog()
        cluster = _hub0(log)
        node, _ = _stub_node(cluster, 1)
        link, peer = _stub_node(cluster, 2)
        try:
            assert peer.send(MsgDecide(2, "v", [1], 3))
            _serve(cluster, lambda: link.kind == "closed")
            assert [(e.pid, e.fault) for e in log.of_type(FaultEvent)] == [(2, "wire-error")]
            assert cluster.decisions == {} and log.of_type(DecideEvent) == []
            assert cluster._nodes == {1: node}
        finally:
            cluster._close()

    @pytest.mark.parametrize(
        "shape", ["unregistered", "not-a-call", "reply-path", "depth"]
    )
    def test_a_hostile_service_frame_costs_only_its_own_link(self, shape):
        # Each of these used to raise out of hub 0's loop: a call to no
        # registered service (SimulationError), a call that is no
        # ServiceCall (AttributeError), a reply path holding a non-string
        # (AttributeError when the reply was encoded), a depth that is no
        # integer (TypeError once a correct call completed the quorum).
        import time

        from repro.engine.events import FaultEvent, ServiceEvent
        from repro.net.wire import MsgService
        from repro.runtime.effects import ServiceCall
        from repro.underlying.oracle import SERVICE_NAME, OracleProposal

        proposal = OracleProposal((0, 0), 1)
        good = ServiceCall(SERVICE_NAME, proposal)
        hostile = {
            "unregistered": MsgService(2, ServiceCall("nope", proposal), 1),
            "not-a-call": MsgService(2, "oracle-uc", 1),
            "reply-path": MsgService(2, ServiceCall(SERVICE_NAME, proposal, (5,)), 1),
            "depth": MsgService(2, good, "deep"),
        }[shape]
        log = EventLog()
        cluster = _oracle_hub(log)
        (_, first), (_, second) = _stub_node(cluster, 0), _stub_node(cluster, 1)
        link, peer = _stub_node(cluster, 2)
        try:
            assert peer.send(hostile)
            _serve(cluster, lambda: cluster.frames_in >= 1)
            for pid, honest in ((0, first), (1, second)):  # the quorum's other two
                assert honest.send(MsgService(pid, good, 1))
            _serve(cluster, lambda: cluster.frames_in >= 3)
            cluster._deliver_due(time.monotonic() + 60.0)
            assert link.kind == "closed"
            assert [(e.pid, e.fault) for e in log.of_type(FaultEvent)] == [(2, "wire-error")]
            assert sorted(cluster._nodes) == [0, 1]
            assert [e.pid for e in log.of_type(ServiceEvent)] == [0, 1]
        finally:
            first.close()
            second.close()
            cluster._close()


class TestBroadcastFrame:
    """One ``MsgBroadcast`` frame is exactly the ``n`` sends it stands for —
    on hub 0 and on a data hub, which run the same ingress."""

    def _payload(self, shard=1):
        from repro.codec.schema import instance_name
        from repro.core.dex import DexProposal
        from repro.runtime.effects import Envelope

        return Envelope("mux", Envelope(instance_name(shard, 0), DexProposal(7)))

    def test_forged_src_is_attributed_to_the_link(self):
        from repro.codec import Opaque
        from repro.net.wire import MsgBroadcast

        log = EventLog()
        cluster = _hub0(log)
        _, peer = _stub_node(cluster, 2)
        try:
            assert peer.send(MsgBroadcast(0, self._payload(), 5))  # claims pid 0
            _serve(cluster, lambda: cluster.sent >= 4)
            sends = log.of_type(SendEvent)
            assert [(e.pid, e.dst, e.depth) for e in sends] == [(2, dst, 5) for dst in range(4)]
            assert (cluster.sent, cluster.frames_in) == (4, 1)
            heap = sorted(cluster._heap, key=lambda entry: entry[1])
            assert [(dst, sender) for _, _, dst, sender, _, _ in heap] == [
                (dst, 2) for dst in range(4)
            ]
            # one span, shared by the four heap entries and the four events
            (span,) = {id(entry[4]) for entry in heap} | {id(e.raw) for e in sends}
            assert type(heap[0][4]) is Opaque and id(heap[0][4]) == span
            assert heap[0][4].decode() == self._payload()
        finally:
            peer.close()
            cluster._close()

    @pytest.mark.parametrize(
        "fault, survivors",
        [
            (lambda: DropLink(1.0), []),
            (lambda: CutAfter(budget=2), [0, 1]),
            (lambda: DuplicateLink(copies=2), [0, 0, 1, 1, 2, 2, 3, 3]),
        ],
    )
    def test_fault_budgets_count_per_destination(self, fault, survivors):
        # The plan sees four messages, not one frame: a cut budget ends
        # *inside* the broadcast, a duplicate doubles each destination.
        from repro.net.wire import MsgBroadcast

        cluster = _hub0(link_plan=LinkPlan(per_source={1: [fault()]}))
        _, faulty = _stub_node(cluster, 1)
        _, honest = _stub_node(cluster, 3)
        try:
            assert faulty.send(MsgBroadcast(1, self._payload(), 1))
            assert honest.send(MsgBroadcast(3, self._payload(), 1))
            _serve(cluster, lambda: cluster.sent >= 8)
            queued = sorted((sender, dst) for _, _, dst, sender, _, _ in cluster._heap)
            assert queued == [(1, dst) for dst in survivors] + [(3, dst) for dst in range(4)]
            assert faulty.send(MsgBroadcast(1, self._payload(), 2))
            _serve(cluster, lambda: cluster.sent >= 12)
            again = [dst for _, _, dst, sender, _, depth in cluster._heap if depth == 2]
            # a spent cut stays spent; the stateless faults repeat themselves
            assert sorted(again) == ([] if survivors == [0, 1] else survivors)
        finally:
            faulty.close()
            honest.close()
            cluster._close()

    def test_data_hub_delivers_every_broadcast_it_receives(self, tmp_path):
        import select

        from repro.mesh import CONTROL_LINK, HubHello
        from repro.net.wire import MsgBroadcast

        hub = _data_hub(tmp_path)  # hub 1 of a 2-hub mesh: owns shards 1 and 3
        _, control = _stub_link(hub, HubHello(CONTROL_LINK))
        _serve(hub, lambda: hub._control is not None)
        _, peer = _stub_node(hub, 2)
        try:
            assert peer.send(MsgBroadcast(0, self._payload(shard=3), 4))  # forged src
            _serve(hub, lambda: hub.sent >= 4)
            assert sorted((dst, sender) for _, _, dst, sender, _, _ in hub._heap) == [
                (dst, 2) for dst in range(4)
            ]
            assert peer.send(MsgBroadcast(2, self._payload(shard=0), 6))  # hub 0's shard
            _serve(hub, lambda: hub.sent >= 8)
            # queued here like its own shard's, nothing up the control link
            assert sorted((dst, depth) for _, _, dst, _, _, depth in hub._heap) == [
                (dst, depth) for dst in range(4) for depth in (4, 6)
            ]
            assert select.select([control.sock], [], [], 0.05)[0] == []
        finally:
            peer.close()
            control.close()
            hub._close()

    def test_one_frame_one_time_and_one_write_one_time(self):
        """The hub reads the clock per frame and per write, not per copy:
        the ``n`` sends of one broadcast share a time, as do the deliveries
        coalesced into one write — and frames, like writes, still differ."""
        import time

        from repro.net.wire import MsgBroadcast, MsgSend

        log = EventLog()
        cluster = _hub0(log)
        _, first = _stub_node(cluster, 1)
        _, second = _stub_node(cluster, 2)
        try:
            assert first.send(MsgBroadcast(1, self._payload(), 1))
            _serve(cluster, lambda: cluster.sent >= 4)
            time.sleep(0.002)
            assert second.send(MsgBroadcast(2, self._payload(), 2))
            assert second.send(MsgSend(2, 1, self._payload(), 3))
            _serve(cluster, lambda: cluster.sent >= 9)
            sends = log.of_type(SendEvent)
            assert [e.pid for e in sends] == [1] * 4 + [2] * 5
            by_frame = [{e.time for e in sends if e.depth == depth} for depth in (1, 2, 3)]
            assert [len(times) for times in by_frame] == [1, 1, 1]
            (t1,), (t2,), (t3,) = by_frame
            assert 0.0 < t1 < t2 <= t3
            # every queued copy comes due: one write per connected node
            cluster._deliver_due(time.monotonic() + 1.0)
            delivers = log.of_type(DeliverEvent)
            assert sorted(e.pid for e in delivers) == [1, 1, 1, 2, 2]  # nodes 0, 3: no link
            per_write = {dst: {e.time for e in delivers if e.pid == dst} for dst in (1, 2)}
            assert all(len(times) == 1 for times in per_write.values())
            assert per_write[1] != per_write[2] and min(per_write[1] | per_write[2]) >= t3
            assert (cluster.delivered, cluster.frames) == (5, 2)
        finally:
            first.close()
            second.close()
            cluster._close()

    def test_without_a_sink_the_clock_is_not_read(self, monkeypatch):
        from repro.net.wire import MsgBroadcast

        cluster = _hub0()
        _, peer = _stub_node(cluster, 2)
        monkeypatch.setattr(
            cluster, "now", lambda: pytest.fail("stamped an event nobody sees")
        )
        try:
            assert peer.send(MsgBroadcast(2, self._payload(), 1))
            _serve(cluster, lambda: cluster.sent >= 4)
            import time

            cluster._deliver_due(time.monotonic() + 1.0)
            assert cluster.delivered == 1
        finally:
            peer.close()
            cluster._close()


#: The delay heap's clock, frozen for the hub tests below: every frame
#: arrives at this instant, so each due time is a known float expression.
ARRIVED = 1234.5678


def _frozen_hub(monkeypatch, seed=0, n=4, event_sink=None, **kwargs):
    """A never-run hub 0 seeded with ``random.Random(seed)`` whose delay heap
    reads :data:`ARRIVED` as the time of every frame."""
    import types

    from repro.net import cluster as cluster_module
    from repro.types import SystemConfig

    monkeypatch.setattr(cluster_module, "time", types.SimpleNamespace(monotonic=lambda: ARRIVED))
    config = SystemConfig(n, 0)
    return NetCluster(
        config, {pid: None for pid in config.processes}, seed=seed,
        event_sink=event_sink, mean_delay=0.0005, **kwargs,
    )


class TestHubRngStream:
    """The hub's seeded stream, draw for draw: per destination in pid order
    the link plan draws first (only on a faulted link), then one jitter draw
    per surviving copy but the self copy — and every due time is exactly
    ``arrived + jitter + extra`` in that float order."""

    SRC = 2

    def _broadcast(self, cluster):
        from repro.net.wire import MsgBroadcast

        _, peer = _stub_node(cluster, self.SRC)
        try:
            assert peer.send(MsgBroadcast(self.SRC, "ping", 3))
            _serve(cluster, lambda: cluster.sent >= cluster.n)
        finally:
            peer.close()
        by_seq = sorted(cluster._heap, key=lambda entry: entry[1])
        return [(dst, due) for due, _, dst, _, _, _ in by_seq]

    def _replay(self, seed, extras, jitter):
        """Expected ``(dst, due)`` per copy: ``extras(rng, dst)`` draws the
        plan's extra delays, ``jitter(rng)`` one copy's jitter."""
        rng, expected = random.Random(seed), []
        for dst in range(4):
            for extra in extras(rng, dst):
                base = 0.0 if dst == self.SRC else jitter(rng)
                expected.append((dst, ARRIVED + base + extra))
        return rng, expected

    @staticmethod
    def _uniform(rng):
        return rng.uniform(0.5, 1.5) * 0.0005

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_uniform_jitter(self, monkeypatch, seed):
        cluster = _frozen_hub(monkeypatch, seed)
        try:
            got = self._broadcast(cluster)
            rng, expected = self._replay(seed, lambda rng, dst: [0.0], self._uniform)
            assert got == expected
            assert [due - ARRIVED for dst, due in got if dst == self.SRC] == [0.0]
            assert cluster.rng.getstate() == rng.getstate()  # no draw more or less
        finally:
            cluster._close()

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_a_faulted_source_draws_its_plan_first(self, monkeypatch, seed):
        plan = LinkPlan(
            per_source={self.SRC: [DelayLink(0.001, jitter=0.002), DuplicateLink(0.5, copies=2)]}
        )

        def extras(rng, dst):
            delay = 0.001 + rng.uniform(0.0, 0.002)
            copies = 2 if rng.random() < 0.5 else 1
            return [delay + 0.0] * copies

        cluster = _frozen_hub(monkeypatch, seed, link_plan=plan)
        try:
            got = self._broadcast(cluster)
            rng, expected = self._replay(seed, extras, self._uniform)
            assert got == expected
            assert cluster.rng.getstate() == rng.getstate()
        finally:
            cluster._close()

    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_a_plan_on_another_source_draws_nothing(self, monkeypatch, seed):
        plan = LinkPlan(per_source={0: [DropLink(0.5), DuplicateLink(0.5)]})
        cluster = _frozen_hub(monkeypatch, seed, link_plan=plan)
        try:
            got = self._broadcast(cluster)
            rng, expected = self._replay(seed, lambda rng, dst: [0.0], self._uniform)
            assert got == expected
            assert cluster.rng.getstate() == rng.getstate()
        finally:
            cluster._close()


class TestHubSaturationLatch:
    """One :class:`HubSaturatedEvent` per episode: raised when the delay
    heap reaches ``high_water``, silent while it stays above half of it,
    re-armed by a sweep that finds it at half or less."""

    def test_one_event_per_episode(self, monkeypatch):
        from repro.engine.events import HubSaturatedEvent
        from repro.net.wire import MsgBroadcast

        log = EventLog()
        cluster = _frozen_hub(monkeypatch, event_sink=log)
        cluster.high_water = 8
        _, peer = _stub_node(cluster, 1)

        def broadcast():  # four copies on the heap
            sent = cluster.sent
            assert peer.send(MsgBroadcast(1, "ping", 1))
            _serve(cluster, lambda: cluster.sent >= sent + 4)

        def episodes():
            return [(e.pid, e.depth, e.high_water) for e in log.of_type(HubSaturatedEvent)]

        try:
            broadcast()
            assert len(cluster._heap) == 4 and episodes() == []
            broadcast()
            ((hub, depth, high_water),) = episodes()
            assert hub == 0 and high_water == 8 and depth >= 8
            # the self copies come due: the heap stays above half the mark
            cluster._deliver_due(ARRIVED)
            assert len(cluster._heap) == 6
            broadcast()
            cluster._deliver_due(ARRIVED)
            broadcast()
            assert len(cluster._heap) > 4 and len(episodes()) == 1
            # a sweep drains it; the next one finds it at half or less
            cluster._deliver_due(ARRIVED + 1.0)
            cluster._deliver_due(ARRIVED + 1.0)
            assert cluster._heap == [] and len(episodes()) == 1
            broadcast()
            broadcast()
            assert len(episodes()) == 2 and episodes()[1][1] >= 8
        finally:
            peer.close()
            cluster._close()


class TestSilentDialer:
    def test_a_silent_dialer_delays_no_delivery(self, tmp_path):
        # Regression: mid-run, hub 0 accepted a connection and then blocked
        # in recv (1 s timeout) for its first frame — every dialer that
        # said nothing stalled every delivery for a second.
        import socket
        import time

        from repro.net.wire import MsgDeliverRefs

        cluster = _hub0()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(tmp_path / "hub.sock"))
        listener.listen(4)
        cluster._listen(listener)
        _, peer = _stub_node(cluster, 1)
        cluster._running = True
        silent = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            silent.connect(str(tmp_path / "hub.sock"))  # ... and says nothing
            cluster._schedule(1, 0, "ping", 0, 0.0)
            began = time.monotonic()
            cluster._poll(0.0)  # accepts the dialer
            cluster._deliver_due(time.monotonic())
            assert time.monotonic() - began < 0.5
            assert _drain(peer, 1) == [MsgDeliverRefs(((0, "ping", 0),))]
            kinds = [
                key.data.kind for key in cluster._selector.get_map().values() if key.data
            ]
            assert sorted(kinds) == ["node", "pending"]  # parked, not served
        finally:
            silent.close()
            peer.close()
            cluster._close()


class _ChokedSocket:
    """A socket whose ``send`` takes what the script allows: each budget is
    one call's byte allowance, ``0`` (or none left) is a full buffer."""

    def __init__(self):
        self.budgets: list[int] | None = []
        self.wire = bytearray()

    def send(self, data):
        if self.budgets is None:
            taken = len(data)
        elif not self.budgets or self.budgets[0] == 0:
            del self.budgets[:1]
            raise BlockingIOError
        else:
            taken = min(self.budgets.pop(0), len(data))
        self.wire += bytes(data[:taken])
        return taken


class TestOutbox:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(max_size=400), st.lists(st.integers(0, 96), max_size=5)),
            min_size=1,
            max_size=24,
        )
    )
    def test_partial_sends_never_tear_a_frame(self, script):
        # However the socket slices the writes, the bytes that reach the
        # wire are exactly the blocking path's: frame after frame, in order.
        from repro.net.cluster import HubLink
        from repro.net.wire import FrameDecoder, MsgDeliver, encode_frame

        sock = _ChokedSocket()
        link = HubLink(sock, lazy=False)
        msgs = [MsgDeliver(i, blob, i) for i, (blob, _) in enumerate(script)]
        for msg, (_, budgets) in zip(msgs, script):
            sock.budgets = list(budgets)
            assert link.send(msg)
        sock.budgets = None  # the socket drains at last
        assert link.flush() and not link.outbox
        assert bytes(sock.wire) == b"".join(encode_frame(m) for m in msgs)
        assert list(FrameDecoder().feed(bytes(sock.wire))) == msgs

    def test_a_node_that_never_reads_is_disconnected_at_the_cap(self):
        # Overflow is an attributed disconnect — not a silent drop, not a
        # timeout — and every other link keeps flowing.
        from repro.engine.events import FaultEvent
        from repro.net.cluster import OUTBOX_CAP
        from repro.net.wire import MsgDeliver

        log = EventLog()
        cluster = _hub0(log)
        deaf, deaf_peer = _stub_node(cluster, 2)
        live, live_peer = _stub_node(cluster, 1)
        chunk = MsgDeliver(1, "y" * 200_000, 1)
        try:
            writes = 0
            while cluster._write(deaf, [chunk]):
                writes += 1
                assert len(deaf.outbox) <= OUTBOX_CAP
                assert writes * 200_000 < 2 * OUTBOX_CAP, "the cap never tripped"
            assert writes * 200_000 >= OUTBOX_CAP  # a few MiB were held first
            assert deaf.kind == "closed" and 2 not in cluster._nodes
            assert 2 in cluster._dead
            faults = [(e.pid, e.fault) for e in log.of_type(FaultEvent)]
            assert faults == [(2, "outbox-overflow")]
            assert cluster._write(live, [MsgDeliver(0, "still here", 0)])
            assert _drain(live_peer, 1) == [MsgDeliver(0, "still here", 0)]
        finally:
            deaf_peer.close()
            live_peer.close()
            cluster._close()


    def test_a_failed_write_does_not_discard_what_the_peer_sent(self):
        # Regression: a node wrote its last frames and died; the hub's next
        # delivery to it failed and dropped the link on the spot, unread
        # frames and all — a ProcessCrash(after=N) lost messages that had
        # escaped.  The write side gives up, the read side runs to EOF.
        from repro.net.wire import MsgDeliver, MsgSend

        cluster = _hub0()
        link, peer = _stub_node(cluster, 2)
        try:
            for depth in range(3):
                assert peer.send(MsgSend(2, 1, "last words", depth))
            peer.close()
            assert not cluster._write(link, [MsgDeliver(0, "too late", 0)])
            assert link.broken and link.kind == "node" and cluster.sent == 0
            assert not cluster._write(link, [MsgDeliver(0, "still too late", 0)])
            _serve(cluster, lambda: link.kind == "closed")
            by_seq = sorted(cluster._heap, key=lambda entry: entry[1])
            assert cluster.sent == 3 and [entry[5] for entry in by_seq] == [0, 1, 2]
            assert 2 in cluster._dead and 2 not in cluster._nodes
        finally:
            cluster._close()


class TestHubWriteCannotDeadlock:
    SENDS = 40_000
    FRAMES = 10

    def _traffic(self, sends):
        from repro.net.wire import MsgDeliver, MsgSend, encode_frame

        upstream = b"".join(
            encode_frame(MsgSend(2, 1, ("vote", 7, "x" * 40), i)) for i in range(sends)
        )
        frames = [MsgDeliver(1, f"{i}" + "y" * 200_000, 1) for i in range(self.FRAMES)]
        downstream = b"".join(encode_frame(f) for f in frames)
        return upstream, frames, downstream

    def _node(self, up_sock, upstream, down_sock, downstream, received):
        """A node in a handler: writes everything, reading nothing; only
        then reads what was sent to it."""
        import threading

        def node():
            up_sock.sendall(upstream)
            got = bytearray()
            while len(got) < len(downstream):
                got += down_sock.recv(1 << 20)
            received.append(bytes(got))

        thread = threading.Thread(target=node, daemon=True)
        thread.start()
        return thread

    def _arrived_in_order(self, plane, sends):
        assert plane.sent == sends
        by_seq = sorted(plane._heap, key=lambda entry: entry[1])
        assert [entry[5] for entry in by_seq] == list(range(sends))

    def test_hub_drains_a_node_that_writes_without_reading(self):
        # Regression: a node writes from inside its handlers without
        # reading.  With both directions' socket buffers full a blocking
        # hub write waited for the node waiting for the hub, until a send
        # timeout dropped a healthy replica.  Stub node on a socketpair:
        # megabytes each way, far beyond any socket buffer.
        cluster = _hub0()
        link, peer = _stub_node(cluster, 2)
        upstream, frames, downstream = self._traffic(self.SENDS)
        received = []
        thread = self._node(peer.sock, upstream, peer.sock, downstream, received)
        try:
            assert cluster._write(link, frames)  # returns at once, rest queued
            _serve(cluster, lambda: not thread.is_alive())
            assert received == [downstream]  # complete, in order
            assert cluster._nodes[2] is link and 2 not in cluster._dead
            _serve(cluster, lambda: cluster.sent >= self.SENDS)
            self._arrived_in_order(cluster, self.SENDS)  # nothing dropped
        finally:
            peer.close()
            cluster._close()

    def test_node_blocked_on_one_hub_is_not_dropped_by_another(self, tmp_path):
        # The mesh's cycle: the node is blocked writing megabytes to hub A
        # while hub B holds megabytes for it.  A data hub used to sendall
        # under a 1 s timeout here and drop the replica.
        hub_a, hub_b = _hub0(), _data_hub(tmp_path)
        link_a, peer_a = _stub_node(hub_a, 2)
        link_b, peer_b = _stub_node(hub_b, 2)
        upstream, frames, downstream = self._traffic(20_000)
        received = []
        try:
            assert hub_b._write(link_b, frames)
            assert link_b.outbox  # B is holding most of it
            thread = self._node(peer_a.sock, upstream, peer_b.sock, downstream, received)

            def both_served():
                hub_b._poll(0.0)
                return not thread.is_alive() and hub_a.sent >= 20_000

            _serve(hub_a, both_served)
            assert received == [downstream]
            assert hub_a._nodes[2] is link_a and hub_b._nodes[2] is link_b
            assert not link_b.outbox
            self._arrived_in_order(hub_a, 20_000)
        finally:
            peer_a.close()
            peer_b.close()
            hub_a._close()
            hub_b._close()


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
        # The wrapper the fault plane builds is the only enforcement: the
        # node sends exactly its budget (self copy included) — its frames
        # are up its link before anyone can decide.  Whether a copy is
        # delivered before the run ends is a race, so deliveries are a
        # bound: at most one per copy, each to a distinct destination.
        log = EventLog()
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Crash(budget=3)}, seed=4,
            engine="net", event_sink=log,
        ).run()
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert len([e for e in log.of_type(SendEvent) if e.pid == 6]) == 3
        delivered = [e.pid for e in log.of_type(DeliverEvent) if e.sender == 6]
        assert len(delivered) <= 3 and len(set(delivered)) == len(delivered)
        assert_no_leaks()

    def test_real_uc_is_refused_on_the_net_engine(self):
        # Its RBC/ABA/ACS records cannot be encoded: refused when the
        # scenario is made, not by every node exiting mid-run.
        with pytest.raises(ConfigurationError, match="no wire records"):
            Scenario(dex_freq(), unanimous(1, 7), uc="real", engine="net")

    def test_the_callers_link_plan_reaches_the_hub(self):
        # A link plan is a transport condition the caller passes; the
        # fault plane does not replace it.
        log = EventLog()
        result = Scenario(
            dex_freq(), unanimous(1, 7), seed=4, engine="net", event_sink=log
        ).run(link_plan=LinkPlan(per_source={2: [DropLink(1.0)]}))
        assert not [e for e in log.of_type(DeliverEvent) if e.sender == 2]
        others = {pid: d.value for pid, d in result.decisions.items() if pid != 2}
        assert others == {pid: 1 for pid in range(7) if pid != 2}
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

    def test_an_undecodable_payload_crashes_no_correct_replica(self):
        # A faulty process may send arbitrary messages (§2.1) but must not
        # crash a correct one — here one broadcast whose payload is the
        # single byte 0x20, a tag no decoder knows.
        from repro.byzantine.adversary import ByzantineBehavior
        from repro.codec import Opaque
        from repro.engine.faults import Custom
        from repro.runtime.effects import Broadcast

        class UndecodableBroadcast(ByzantineBehavior):
            def on_start(self):
                return [Broadcast(Opaque(b"\x20"))]

        result = Scenario(
            dex_freq(),
            unanimous(1, 7),
            faults={6: Custom(lambda pid, config, *_: UndecodableBroadcast(pid, config))},
            seed=4,
            engine="net",
        ).run(timeout=5.0)
        assert result.all_correct_decided()
        assert all(code == 0 for pid, code in result.exit_codes.items() if pid != 6)
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


@pytest.mark.net
class TestFramesIn:
    def test_a_broadcast_is_one_frame_in_and_n_messages_sent(self):
        # All-honest n=7: every protocol message is part of a broadcast, so
        # the hub took in one data frame per seven messages it routed —
        # plus the control frames, each of which it reported as an event.
        from repro.engine.events import LogEvent, OutputEvent, ServiceEvent

        log = EventLog()
        result = Scenario(
            dex_freq(), unanimous(1, 7), seed=3, engine="net", event_sink=log
        ).run()
        assert result.all_correct_decided() and not result.timed_out
        sends = log.of_type(SendEvent)
        assert len(sends) == result.stats.messages_sent
        broadcast_frames = len({id(e.raw) for e in sends})
        assert result.stats.messages_sent == 7 * broadcast_frames > 0
        control_frames = sum(
            len(log.of_type(kind))
            for kind in (DecideEvent, OutputEvent, ServiceEvent, LogEvent)
        )
        assert result.hub_frames_in == broadcast_frames + control_frames
        assert_no_leaks()


@pytest.mark.net(timeout=120)
class TestNetRobustness:
    def test_crash_budget_ends_mid_broadcast(self):
        # ProcessCrash(after=N) dies at point-to-point message N+1 although
        # a broadcast is one frame: the first broadcast (7 ≤ 10) leaves
        # whole, the second would cross the budget and goes out per
        # destination, so exactly three more messages escape.
        scenario = Scenario(dex_freq(), unanimous(1, 7), seed=11)
        protocols, services = scenario.components()
        log = EventLog()
        cluster = NetCluster(
            scenario.config,
            protocols,
            services=services,
            seed=11,
            event_sink=log,
            chaos={6: ProcessCrash(after=10)},
        )
        result = cluster.run(timeout=8.0)
        escaped = [e for e in log.of_type(SendEvent) if e.pid == 6]
        assert len(escaped) == 10
        assert [e.dst for e in escaped] == [*range(7), 0, 1, 2]
        assert len({id(e.raw) for e in escaped}) == 1 + 3  # one frame, three sends
        assert result.exit_codes[6] == 17
        assert set(result.correct_decisions) == {0, 1, 2, 3, 4, 5}
        assert result.agreement_holds() and result.decided_value == 1
        assert_no_leaks()

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
            chaos={6: ProcessCrash(after=0)},
        )
        result = cluster.run(timeout=8.0)
        decided = set(result.correct_decisions)
        assert decided == {0, 1, 2, 3, 4}
        assert result.agreement_holds()
        assert result.decided_value == 1
        assert result.timed_out  # partial: an undecided correct pid remains
        assert result.exit_codes[6] == 17
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
        assert ReorderLink(0.7, window=0.004).describe() == "p=0.7, window=0.004s"


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
        # Coalescing co-scheduled deliveries into MsgDeliverBatch frames is
        # invisible to the protocol (same decision as every other engine)
        # and far cheaper than a frame per message.  (Exact message
        # *counts* are wall-clock dependent — nodes keep gossiping until
        # the hub winds the run down — so the assertion is an ordering.)
        result = Scenario(
            dex_freq(), unanimous(1, 7), seed=21, engine="net"
        ).run(timeout=20.0)
        assert result.all_correct_decided()
        assert result.decided_value == 1
        assert result.hub_frames < result.stats.messages_delivered
        # and a payload the link already carried goes out as a one-byte slot
        assert result.hub_bytes < 10 * result.stats.messages_delivered
        assert_no_leaks()
