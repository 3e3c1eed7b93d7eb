"""The mesh transport end to end: hub groups, their control links, and hub
death.

Three layers:

* unmarked unit tests for the pure pieces — :class:`~repro.mesh.topology.
  MeshTopology` validation, the per-hub RNG streams, raw-bytes shard
  attribution (``peek_shard``), and the per-hub projection of link plans;
* :class:`~repro.mesh.hub.HubWorker` and hub-0 routing tests on stub
  sockets — no forking, but the real selector loop: every hub delivers
  what it receives, whatever shard it names, and a hub-facing link can
  neither relay a frame nor take over the control link;
* ``@pytest.mark.net`` integration tests that fork the full mesh (hub
  processes + node processes): sim↔mesh digest parity, per-hub frame
  attribution, a SIGKILLed hub (fail loudly, never hang), and a remote
  TCP hub served by :func:`~repro.mesh.hub.serve_hub`.
"""

import multiprocessing
import os
import select
import signal
import socket
import tempfile
import threading
import time

import pytest

from repro.codec import CODEC_BINARY
from repro.codec.binary import encode
from repro.errors import SimulationError
from repro.harness import Scenario, dex_freq
from repro.mesh import (
    CONTROL_LINK,
    EXIT_HUB_LOST,
    HubHello,
    HubLink,
    HubReady,
    HubStats,
    HubWorker,
    MeshTopology,
    hub_rng,
    peek_shard,
    shard_of_payload,
)
from repro.mesh.wire import MsgRelay
from repro.net.faults import DelayLink, DropLink, LinkPlan
from repro.net.wire import Hello, MsgDeliverRefs, MsgLog, MsgSend, Stop, encode_frame
from repro.runtime.composite import Envelope
from repro.shard.router import hub_of, instance_name
from repro.shard.service import ShardedService
from repro.types import DecisionKind
from repro.workloads.inputs import unanimous

from .conftest import leaked_socket_dirs
from .test_net_engine import _data_hub, _drain, _serve, _stub_link, _stub_node

UNATTRIBUTED = -1


def assert_no_mesh_leaks():
    """No hub or node processes, no socket directories left behind."""
    leaked = [
        p
        for p in multiprocessing.active_children()
        if "repro-net" in p.name or "repro-mesh" in p.name
    ]
    assert not leaked, f"leaked processes: {leaked}"
    residue = leaked_socket_dirs()
    assert not residue, f"leaked socket directories: {residue}"


def sharded_payload(shard: int, slot: int = 0):
    """The data-plane shape every sharded frame has: mux → instance → body."""
    return Envelope("mux", Envelope(instance_name(shard, slot), ("body", shard)))


# -- topology / attribution units ------------------------------------------------------


class TestMeshTopology:
    def test_defaults_are_the_star(self):
        topo = MeshTopology()
        assert topo.hubs == 1
        assert not topo.remote

    def test_rejects_zero_hubs(self):
        with pytest.raises(SimulationError):
            MeshTopology(hubs=0)

    def test_rejects_remote_hub_zero(self):
        # hub 0 is the orchestrator itself; it cannot be remote.
        with pytest.raises(SimulationError):
            MeshTopology(hubs=2, remote={0: ("10.0.0.1", 9000)})

    def test_rejects_remote_index_out_of_range(self):
        with pytest.raises(SimulationError):
            MeshTopology(hubs=2, remote={2: ("10.0.0.1", 9000)})


class TestHubRng:
    def test_hub_zero_matches_the_star_stream(self):
        # Back-compat anchor: a 1-hub mesh must be bit-identical to the
        # star cluster, so hub 0 draws from the plain seeded stream.
        import random

        assert hub_rng(42, 0).random() == random.Random(42).random()

    def test_streams_differ_per_hub(self):
        draws = {hub_rng(42, k).random() for k in range(4)}
        assert len(draws) == 4

    def test_streams_differ_per_seed(self):
        assert hub_rng(1, 2).random() != hub_rng(2, 2).random()


class TestAttribution:
    def test_hub_of_round_robin(self):
        assert [hub_of(s, 2) for s in range(4)] == [0, 1, 0, 1]
        assert hub_of(5, 1) == 0

    def test_hub_of_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hub_of(0, 0)
        with pytest.raises(ValueError):
            hub_of(-1, 2)

    def test_shard_of_payload_unwraps_envelopes(self):
        for shard in range(4):
            assert shard_of_payload(sharded_payload(shard), 4) == shard

    def test_shard_of_payload_unattributed(self):
        assert shard_of_payload("just a value", 4) == UNATTRIBUTED
        assert shard_of_payload(Envelope("uc", 1), 4) == UNATTRIBUTED

    def test_peek_shard_reads_raw_binary_bytes(self):
        # The data hub's zero-decode path: attribution straight off the
        # encoded frame body, no object materialization.
        for shard in range(4):
            data = encode(sharded_payload(shard, slot=7))
            assert peek_shard(data, 4) == shard

    def test_peek_shard_foreign_bytes_unattributed(self):
        assert peek_shard(encode(("x", 1)), 4) == UNATTRIBUTED
        assert peek_shard(b"", 4) == UNATTRIBUTED
        assert peek_shard(b"\xff\xff\xff", 4) == UNATTRIBUTED


class TestLinkPlanProjection:
    def test_projected_budgets_are_independent(self):
        # Each hub must own a private copy of every fault's mutable state
        # (budgets, counters); otherwise multi-hub runs would share one
        # CutAfter countdown across processes that never see each other.
        import random

        plan = LinkPlan(per_source={1: [DropLink(1.0)]})
        a, b = plan.project(), plan.project()
        assert a.route(1, 2, random.Random(0)) == []
        assert b.route(1, 2, random.Random(0)) == []
        assert a.per_source[1][0] is not plan.per_source[1][0]
        assert a.per_source[1][0] is not b.per_source[1][0]

    def test_projected_delay_still_delays(self):
        import random

        plan = LinkPlan(everywhere=[DelayLink(0.25)])
        projected = plan.project()
        assert projected.route(0, 1, random.Random(0)) == [0.25]


# -- the hub worker's selector loop, in a thread ---------------------------------------


def _nothing_to_read(link):
    """``True`` when no byte waits on a bare link (the hub wrote nothing)."""
    readable, _, _ = select.select([link.sock], [], [], 0.05)
    return not readable


class TestHubWorkerRouting:
    def test_every_frame_is_delivered_by_the_hub_that_received_it(self, tmp_path):
        """Hub 1 of a 2-hub, 4-shard mesh delivers a frame for every shard —
        its own (1, 3) and hub 0's (0, 2) alike — straight to the
        destination node, and writes nothing up its control link but the
        stats it owes on ``Stop``."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(tmp_path / "hub1.sock"))
        listener.listen(8)
        worker = HubWorker(index=1, nodes=2, listener=listener, mean_delay=0.0)
        thread = threading.Thread(target=worker.run, kwargs={"deadline_seconds": 30.0})
        thread.start()
        control = node0 = node1 = None
        try:
            address = str(tmp_path / "hub1.sock")
            control = HubLink.dial(
                socket.AF_UNIX, address, HubHello(CONTROL_LINK), lazy=False
            )
            node0 = HubLink.dial(
                socket.AF_UNIX, address, Hello(0, CODEC_BINARY), lazy=False
            )
            node1 = HubLink.dial(
                socket.AF_UNIX, address, Hello(1, CODEC_BINARY), lazy=False
            )
            (ready,) = _drain(control, 1)
            assert ready == HubReady(1, 2)

            for shard in range(4):
                node0.send(MsgSend(0, 1, sharded_payload(shard), 0))

            # the hub may coalesce co-scheduled deliveries into one
            # MsgDeliverRefs frame; flatten to (sender, payload, depth)
            entries = []
            deadline = time.monotonic() + 5.0
            while len(entries) < 4 and time.monotonic() < deadline:
                for frame in _drain(node1, 1):
                    assert isinstance(frame, MsgDeliverRefs)
                    entries.extend(frame.entries)
            assert sorted(shard_of_payload(p, 4) for _, p, _ in entries) == [0, 1, 2, 3]
            # src is authenticated: the hub stamps the connection's pid
            assert {sender for sender, _, _ in entries} == {0}

            control.send(Stop())
            (stats,) = _drain(control, 1)  # the stats, and nothing before them
            assert isinstance(stats, HubStats)
            assert (stats.hub, stats.sent, stats.delivered, stats.relayed) == (1, 4, 4, 0)
            # the deliveries may share one batched frame
            assert stats.frames >= 1
            assert stats.bytes > 0
        finally:
            for link in (control, node0, node1):
                if link is not None:
                    link.close()
            thread.join(10.0)
            assert not thread.is_alive()

    def test_a_hub_hello_is_dropped_and_its_relay_reaches_no_node(self, tmp_path):
        """A dialer announcing itself as hub 2 and claiming to forward a
        message from node 0 is dropped unread: nothing is queued, nothing
        reaches node 1, and nothing is reported."""
        hub = _data_hub(tmp_path)
        _, control = _stub_link(hub, HubHello(CONTROL_LINK))
        _serve(hub, lambda: hub._control is not None)
        _, node1 = _stub_node(hub, 1)
        forged = MsgRelay(0, 1, "forged", 0)
        link, dialer = _stub_link(hub, encode_frame(HubHello(2)) + encode_frame(forged))
        try:
            _serve(hub, lambda: link.kind == "closed")
            assert dialer.sock.recv(16) == b""  # the dialer sees EOF
            hub._deliver_due(time.monotonic() + 1.0)
            assert hub._heap == [] and hub.delivered == 0
            assert _nothing_to_read(node1)
            assert _nothing_to_read(control)
        finally:
            for peer in (control, node1, dialer):
                peer.close()
            hub._close()

    def test_a_second_control_link_is_refused_and_reported(self, tmp_path):
        """Only the first ``HubHello(CONTROL_LINK)`` opens the control link.
        A second dialer is dropped with a ``duplicate-control`` report up
        the first, and its hanging up does not end the hub."""
        hub = _data_hub(tmp_path)
        first, control = _stub_link(hub, HubHello(CONTROL_LINK))
        _serve(hub, lambda: hub._control is first)
        second, intruder = _stub_link(hub, HubHello(CONTROL_LINK))
        try:
            _serve(hub, lambda: second.kind == "closed")
            assert intruder.sock.recv(16) == b""
            (report,) = _drain(control, 1)
            assert isinstance(report, MsgLog)
            assert (report.pid, report.event) == (CONTROL_LINK, "duplicate-control")
            intruder.close()
            hub._poll(0.05)
            assert hub._control is first and first.kind == "control"
            assert hub._exit is None  # the hub still serves its orchestrator
        finally:
            control.close()
            hub._close()


class TestHubZeroDeliversMisSteeredFrames:
    def test_a_frame_for_another_hubs_shard_is_delivered_here(self):
        """A node that hands hub 0 a frame for hub 1's shard gets it
        delivered by hub 0, and nothing goes down hub 1's control link."""
        from repro.mesh import MeshCluster
        from repro.types import SystemConfig

        config = SystemConfig(4, 0)
        cluster = MeshCluster(
            config,
            {pid: None for pid in config.processes},
            mesh=MeshTopology(hubs=2),
            shards=4,
        )
        ours, theirs = socket.socketpair()
        link, hub_one = HubLink(ours), HubLink(theirs, lazy=False)
        link.kind, link.ident = "control", 1
        cluster._hub_links[1] = link
        cluster._attach(link)
        _, sender = _stub_node(cluster, 2)
        _, receiver = _stub_node(cluster, 1)
        owned_by_one = sharded_payload(1)
        try:
            assert hub_of(1, 2) == 1
            assert sender.send(MsgSend(2, 1, owned_by_one, 5))
            _serve(cluster, lambda: cluster.sent >= 1)
            cluster._deliver_due(time.monotonic() + 1.0)
            (frame,) = _drain(receiver, 1)
            ((src, payload, depth),) = frame.entries
            assert (src, shard_of_payload(payload, 4), depth) == (2, 1, 5)
            assert cluster.delivered == 1
            assert _nothing_to_read(hub_one)
        finally:
            for peer in (hub_one, sender, receiver):
                peer.close()
            cluster._close()


# -- full mesh integration: forked hubs + forked nodes ---------------------------------


@pytest.mark.net
class TestMeshCluster:
    def test_two_hub_run_decides_and_splits_load(self):
        report = ShardedService(
            n=7, shards=4, contention=0.0, seed=11, engine="net",
            mesh=MeshTopology(hubs=2),
        ).run(count=12, timeout=30.0)
        result = report.result
        assert not report.divergence
        assert report.digest is not None
        assert not result.timed_out
        assert set(result.exit_codes.values()) == {0}
        assert result.hub_exit_codes == {1: 0}
        # both hub groups carried node-facing traffic
        assert set(result.hub_frame_counts) == {0, 1}
        assert all(frames > 0 for frames in result.hub_frame_counts.values())
        assert all(n > 0 for n in result.hub_byte_counts.values())
        assert_no_mesh_leaks()

    def test_aggregate_totals_include_data_hub_traffic(self):
        # Hub 0's event stream sees only what hub 0 routes; the report's
        # message totals are the run's own counters, data hubs included.
        from repro.engine.events import DeliverEvent, EventLog, SendEvent

        hub0 = EventLog()
        report = ShardedService(
            n=7, shards=4, contention=0.0, seed=11, engine="net",
            mesh=MeshTopology(hubs=2), event_sink=hub0,
        ).run(count=12, timeout=30.0)
        totals = report.result.stats
        sends, delivers = len(hub0.of_type(SendEvent)), len(hub0.of_type(DeliverEvent))
        assert not report.divergence
        assert report.aggregate["sends"] == totals.messages_sent > sends > 0
        assert report.aggregate["delivers"] == totals.messages_delivered > delivers
        assert_no_mesh_leaks()

    def test_mesh_digest_matches_sim(self):
        # Cross-engine determinism with the transport split across hub
        # processes: contention 0 keeps proposals timing-independent, so
        # the mesh must land on the simulator's exact digest.
        reports = {}
        for engine, mesh in (("sim", None), ("net", MeshTopology(hubs=2))):
            reports[engine] = ShardedService(
                n=7, shards=4, contention=0.0, seed=11, engine=engine, mesh=mesh
            ).run(count=10, timeout=30.0)
        assert not reports["sim"].divergence
        assert not reports["net"].divergence
        assert reports["sim"].digest == reports["net"].digest is not None
        assert_no_mesh_leaks()

    def test_hub_death_fails_loudly_never_hangs(self):
        # SIGKILL hub 1 mid-run: the orchestrator must notice the lost
        # control link, declare the run stalled, and attribute the death
        # in hub_exit_codes — not hang until the pytest SIGALRM.
        def kill_hub_one():
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                for proc in multiprocessing.active_children():
                    if proc.name == "repro-mesh-hub-1" and proc.pid:
                        time.sleep(0.2)  # let the handshake finish
                        try:
                            os.kill(proc.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                        return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_hub_one)
        killer.start()
        try:
            # 256 commands keep the run going for a second, well past the
            # killer's 0.2 s grace (64 finished in 0.4 s and could win the race).
            report = ShardedService(
                n=7, shards=4, contention=0.0, seed=5, engine="net",
                mesh=MeshTopology(hubs=2),
            ).run(count=256, timeout=12.0)
        finally:
            killer.join(20.0)
        result = report.result
        assert result.hub_exit_codes.get(1) == -signal.SIGKILL
        # the run either noticed in-flight (stalled → timed out) or the
        # kill landed during teardown after every node already decided —
        # both are loud, neither hangs.
        if not result.timed_out:
            assert report.digest is not None
        assert_no_mesh_leaks()

    def test_remote_tcp_hub(self):
        # Hub 1 lives in its own process behind `serve_hub` (what
        # `repro hub` runs on another host); the cluster dials it via
        # MeshTopology.remote instead of forking it.
        from repro.mesh.hub import serve_hub

        queue: multiprocessing.Queue = multiprocessing.Queue()

        def hub_main():
            serve_hub(
                1, 7,
                host="127.0.0.1", port=0,
                deadline_seconds=60.0,
                announce=lambda addr: queue.put(addr[1]),
            )

        proc = multiprocessing.Process(target=hub_main, daemon=True)
        proc.start()
        try:
            port = queue.get(timeout=10.0)
            scenario = Scenario(
                dex_freq(), unanimous(1, 7), seed=3, engine="net",
                mesh=MeshTopology(hubs=2, remote={1: ("127.0.0.1", port)}),
            )
            result = scenario.run(timeout=30.0, transport="tcp")
            assert result.agreement_holds()
            assert {d.kind for d in result.correct_decisions.values()} == {
                DecisionKind.ONE_STEP
            }
            assert set(result.exit_codes.values()) == {0}
            # the remote hub reported its stats over the control link
            assert 1 in result.hub_frame_counts
            # remote hubs are not the cluster's children: no exit code row
            assert 1 not in result.hub_exit_codes
        finally:
            proc.join(15.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
        assert_no_mesh_leaks()

    def test_remote_topology_requires_tcp(self):
        scenario = Scenario(
            dex_freq(), unanimous(1, 7), seed=3, engine="net",
            mesh=MeshTopology(hubs=2, remote={1: ("127.0.0.1", 1)}),
        )
        with pytest.raises(SimulationError):
            scenario.run(timeout=5.0)  # UDS transport, remote hub

    def test_node_exit_code_names_the_lost_hub(self):
        # EXIT_HUB_LOST is part of the contract surfaced to operators;
        # pin its value so log scrapers can rely on it.
        assert EXIT_HUB_LOST == 6
