"""The client-facing frontend: admission control, load gen, sockets.

Five layers, mirroring :mod:`repro.frontend`'s structure:

* pure unit tests for the admission queue's three policies and their
  counters, plus a hypothesis property pinning the conservation law —
  under any seeded arrival/drain interleaving, depth never exceeds the
  bound, FIFO order per shard is preserved, and
  ``submitted == shed + dequeued + dropped + pending``;
* sim-engine :class:`~repro.frontend.api.Frontend` tests: routing via
  ``shard_of``, future resolution, client-observed latency, the typed
  ``frontend.*`` event stream, and per-policy end-to-end behavior;
* seeded load-generator determinism: same seed → identical counters and
  digest checksum, different seed → different stream;
* percentile edge cases for :class:`~repro.metrics.collectors.
  StreamAggregate` / :class:`~repro.shard.metrics.ShardStreamSink` — an
  empty shard, a single-sample shard, and a shed-only run must yield a
  defined number or an explicit ``None``, never a crash;
* ``@pytest.mark.net`` socket round-trips: submit→decide→reply over UDS,
  shed rejections mid-session, and a client frame in a reserved codec
  refused unread.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import CODEC_BINARY
from repro.engine.events import EventLog, LogEvent
from repro.errors import ConfigurationError, ReproError
from repro.frontend import (
    CLIENT,
    POLICIES,
    AdmissionQueue,
    ClientRejected,
    ClientReply,
    ClientSubmit,
    Frontend,
    FrontendReport,
    FrontendServer,
    LoadGenerator,
    SocketClient,
    SubmitRejected,
    digest_checksum,
    saturation_sweep,
)
from repro.metrics.collectors import StreamAggregate
from repro.net.wire import WireError, encode_frame
from repro.shard import ShardBatcher, ShardedService, shard_of
from repro.shard.metrics import ShardStreamSink
from repro.types import DecisionKind

from .test_net_wire import pickle_frame, tagged_pickle_frame


def keys_of_shard(shard: int, shards: int, count: int) -> list[str]:
    """The first ``count`` keys ``k<i>`` that route to ``shard``."""
    keys = []
    i = 0
    while len(keys) < count:
        if shard_of(f"k{i}", shards) == shard:
            keys.append(f"k{i}")
        i += 1
    return keys


def service(**kwargs) -> ShardedService:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("seed", 3)
    return ShardedService(7, **kwargs)


# -- admission queue unit tests -------------------------------------------------------


class TestAdmissionQueue:
    def test_shed_rejects_past_the_bound(self):
        queue = AdmissionQueue(shard=1, bound=2, policy="shed")
        assert queue.offer("a", 0) is None
        assert queue.offer("b", 0) is None
        rejection = queue.offer("c", 0)
        assert rejection is not None
        assert (rejection.reason, rejection.shard, rejection.depth) == ("shed", 1, 2)
        stats = queue.stats()
        assert (stats.submitted, stats.shed, stats.pending) == (3, 1, 2)
        assert stats.shed_rate == pytest.approx(1 / 3)

    def test_block_parks_overflow_in_the_backlog(self):
        queue = AdmissionQueue(shard=0, bound=2, policy="block")
        for i in range(5):
            assert queue.offer(i, 0) is None
        assert queue.depth == 2  # bounded queue never exceeds its bound
        assert queue.backlog == 3
        assert queue.pending == 5
        served = [item for item, _, _ in queue.drain(1, 2)]
        assert served == [0, 1]
        assert queue.depth == 2  # backlog refilled the freed slots
        assert queue.backlog == 1
        served += [item for item, _, _ in queue.drain(2, 4)]
        assert served == [0, 1, 2, 3, 4]  # FIFO through the backlog
        assert queue.pending == 0
        assert queue.stats().shed == 0

    def test_deadline_drops_stale_without_consuming_service_slots(self):
        queue = AdmissionQueue(shard=0, bound=8, policy="deadline", deadline=1)
        queue.offer("stale", 0)
        queue.offer("fresh", 2)
        outcomes = list(queue.drain(2, 1))  # rate 1, but the drop is free
        assert [(item, rej is None) for item, _, rej in outcomes] == [
            ("stale", False),
            ("fresh", True),
        ]
        assert outcomes[0][2].reason == "deadline"
        stats = queue.stats()
        assert (stats.dropped, stats.dequeued, stats.pending) == (1, 1, 0)

    def test_high_water_tracks_the_deepest_queue(self):
        queue = AdmissionQueue(shard=0, bound=8, policy="shed")
        for i in range(5):
            queue.offer(i, 0)
        list(queue.drain(1, 5))
        queue.offer("x", 2)
        assert queue.high_water == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(0, bound=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(0, bound=4, policy="drop-everything")
        with pytest.raises(ConfigurationError):
            AdmissionQueue(0, bound=4, policy="deadline")  # needs a deadline


@st.composite
def admission_scripts(draw):
    policy = draw(st.sampled_from(POLICIES))
    deadline = draw(st.integers(0, 3)) if policy == "deadline" else None
    bound = draw(st.integers(1, 6))
    ops = draw(
        st.lists(
            st.one_of(
                st.just(("offer",)),
                st.tuples(st.just("drain"), st.integers(1, 5)),
            ),
            max_size=80,
        )
    )
    return policy, deadline, bound, ops


class TestAdmissionProperties:
    @settings(max_examples=120, deadline=None)
    @given(admission_scripts())
    def test_conservation_depth_bound_and_fifo(self, script):
        """Under any arrival/drain interleaving: the bounded depth is never
        exceeded, every submission is in exactly one bucket, and commands
        leave the queue in admission order."""
        policy, deadline, bound, ops = script
        queue = AdmissionQueue(0, bound, policy, deadline)
        now, seq = 0, 0
        admitted: list[int] = []
        left: list[int] = []  # every item drain yielded (served or dropped)
        for op in ops:
            if op[0] == "offer":
                rejection = queue.offer(seq, now)
                if rejection is None:
                    admitted.append(seq)
                else:
                    assert rejection.reason == "shed"
                    assert policy != "block"  # block never rejects
                seq += 1
            else:
                outcomes = list(queue.drain(now, op[1]))
                left.extend(item for item, _, _ in outcomes)
                served = sum(1 for _, _, rej in outcomes if rej is None)
                assert served <= op[1]
                now += 1
            assert queue.depth <= bound
            stats = queue.stats()
            assert stats.submitted == (
                stats.shed + stats.dequeued + stats.dropped + stats.pending
            )
            assert stats.high_water <= bound
        assert left == admitted[: len(left)]  # FIFO, including the backlog


# -- the in-process frontend ----------------------------------------------------------


class TestFrontend:
    def test_submit_routes_by_shard_of(self):
        frontend = Frontend(service())
        for key in ("k0", "k1", "k5", "k11"):
            assert frontend.submit(key).shard == shard_of(key, 2)

    def test_futures_resolve_below_capacity(self):
        frontend = Frontend(service(), queue_bound=16)
        futures = [frontend.submit(f"k{i}") for i in range(8)]
        report = frontend.run()
        assert report.decided == report.submitted == 8
        assert report.shed == report.dropped == 0
        assert not report.shard.divergence
        for future in futures:
            shard, slot = future.result()
            assert shard == future.shard
            assert future.latency is not None and future.latency >= 0
        assert sorted(report.latencies) == sorted(f.latency for f in futures)

    def test_shed_future_raises_submit_rejected(self):
        frontend = Frontend(service(), queue_bound=1)
        keys = keys_of_shard(0, 2, 3)
        first = frontend.submit(keys[0])
        shed = frontend.submit(keys[1])  # same shard, queue already full
        assert shed.rejection is not None and shed.rejection.reason == "shed"
        with pytest.raises(SubmitRejected):
            shed.result()
        report = frontend.run()
        assert report.shed == 1 and first.decided

    def test_duplicate_command_rejected(self):
        frontend = Frontend(service())
        frontend.submit("k0", op=7)
        with pytest.raises(ConfigurationError):
            frontend.submit("k0", op=7)

    def test_frontend_is_single_shot(self):
        frontend = Frontend(service())
        frontend.submit("k0")
        frontend.run()
        with pytest.raises(ReproError):
            frontend.submit("k1")
        with pytest.raises(ReproError):
            frontend.run()

    def test_block_policy_loses_nothing(self):
        frontend = Frontend(service(max_batch=2), queue_bound=2, policy="block")
        for i in range(12):
            frontend.submit(f"k{i}")
        report = frontend.run()
        assert report.shed == report.dropped == 0
        assert report.decided == 12
        assert all(row["pending"] == 0 for row in report.per_shard)

    def test_deadline_policy_drops_stale_commands(self):
        frontend = Frontend(
            service(max_batch=1), queue_bound=16, policy="deadline", deadline=1
        )
        keys = keys_of_shard(0, 2, 6)
        futures = [frontend.submit(key) for key in keys]
        report = frontend.run()  # 1 cmd/tick: commands 2.. wait past deadline
        assert report.dropped > 0
        assert report.decided + report.dropped == 6
        dropped = [f for f in futures if f.rejection is not None]
        assert dropped and all(f.rejection.reason == "deadline" for f in dropped)
        with pytest.raises(SubmitRejected):
            dropped[0].result()

    def test_typed_events_reach_the_sink(self):
        sink = EventLog()
        frontend = Frontend(service(event_sink=sink), queue_bound=1)
        keys = keys_of_shard(0, 2, 3)
        for key in keys:
            frontend.submit(key)
        report = frontend.run()
        logs = [e for e in sink.of_type(LogEvent) if e.event.startswith("frontend.")]
        assert all(e.pid == CLIENT for e in logs)
        by_name = {}
        for e in logs:
            by_name.setdefault(e.event, []).append(e)
        assert len(by_name["frontend.submit"]) == 3
        assert len(by_name["frontend.reject"]) == report.shed == 2
        assert len(by_name["frontend.reply"]) == report.decided == 1
        reply = by_name["frontend.reply"][0]
        assert reply.data["key"] == keys[0] and reply.data["latency"] >= 0


class TestBatcherHeartbeatAging:
    """Regression: heartbeat (empty) decisions must not reset the wait
    clock, or a partial batch below ``max_batch`` never closes and the
    saturation curve's low-load latency inflates to the size bound."""

    def test_empty_acknowledge_keeps_the_clock_running(self):
        batcher = ShardBatcher(max_batch=4, max_wait=2)
        batcher.submit("a", 0)
        batcher.acknowledge((), 1)  # heartbeat slot decided nothing
        assert batcher.ready(2)  # aged max_wait slots from submit, fires

    def test_consuming_acknowledge_restarts_the_clock(self):
        batcher = ShardBatcher(max_batch=4, max_wait=2)
        batcher.submit("a", 0)
        batcher.submit("b", 0)
        batcher.acknowledge(("a",), 5)
        assert not batcher.ready(6)  # the remainder's clock restarted at 5
        assert batcher.ready(7)


# -- seeded load generation -----------------------------------------------------------


class TestLoadGenDeterminism:
    def test_same_seed_same_curve_point(self):
        reports = []
        for _ in range(2):
            frontend = Frontend(service(), queue_bound=16)
            reports.append(LoadGenerator(seed=5).open_loop(frontend, 6.0, 8))
        first, second = reports
        assert first.summary() == second.summary()
        assert digest_checksum(first) == digest_checksum(second)
        assert first.shard.digest == second.shard.digest

    def test_different_seed_different_stream(self):
        checksums = []
        for seed in (5, 6):
            frontend = Frontend(service(), queue_bound=16)
            report = LoadGenerator(seed=seed).open_loop(frontend, 6.0, 8)
            checksums.append((report.submitted, digest_checksum(report)))
        assert checksums[0] != checksums[1]

    def test_closed_loop_self_paces_without_shedding(self):
        frontend = Frontend(service(), queue_bound=16)
        report = LoadGenerator(seed=1).closed_loop(frontend, clients=8, total=24)
        assert report.submitted == report.decided == 24
        assert report.shed == report.dropped == 0

    def test_saturation_sweep_rows_carry_both_latency_curves(self):
        rows = saturation_sweep(
            lambda: service(),
            offered_loads=(2.0, 16.0),
            ticks=6,
            queue_bound=8,
            seed=4,
        )
        assert [row["offered_per_tick"] for row in rows] == [2.0, 16.0]
        below, above = rows
        assert below["shed_rate"] == 0.0
        assert above["shed_rate"] > 0.0  # 2x capacity must shed
        for row in rows:
            assert "p99_client_latency_slots" in row
            assert "consensus_p99_latency" in row
            assert row["divergence"] is False
            assert isinstance(row["digest_crc32"], int)


# -- percentile edge cases ------------------------------------------------------------


class TestPercentileEdges:
    def test_empty_aggregate_is_zero_or_none_never_a_crash(self):
        aggregate = StreamAggregate(label="empty")
        assert aggregate.latency_percentile(0.50) == 0.0
        assert aggregate.latency_percentile_or_none(0.50) is None
        assert aggregate.latency_percentile_or_none(0.99) is None
        summary = aggregate.summary()
        assert summary["runs"] == 0

    def test_single_sample_shard_pins_every_percentile(self):
        sink = ShardStreamSink(shards=2)
        sink.emit(LogEvent(1.0, 0, "shard.open", {"shard": 0, "slot": 0}))
        sink.emit(
            LogEvent(
                3.5,
                0,
                "shard.decide",
                {"shard": 0, "slot": 0, "kind": DecisionKind.ONE_STEP.value},
            )
        )
        per_shard, overall = sink.fold()
        assert per_shard[0].latency_percentile_or_none(0.50) == pytest.approx(2.5)
        assert per_shard[0].latency_percentile(0.99) == pytest.approx(2.5)
        assert overall.latency_percentile(0.50) == pytest.approx(2.5)

    def test_idle_shard_reports_without_samples(self):
        sink = ShardStreamSink(shards=2)
        rows, summary = sink.report()
        assert len(rows) == 2 and summary["slots"] == 0
        per_shard, _ = sink.fold()
        assert per_shard[1].latency_percentile_or_none(0.99) is None

    def test_one_sided_traffic_leaves_the_other_shard_defined(self):
        frontend = Frontend(service(), queue_bound=16)
        busy = keys_of_shard(0, 2, 4)
        for key in busy:
            frontend.submit(key)
        report = frontend.run()
        assert report.decided == 4
        idle = next(row for row in report.per_shard if row["submitted"] == 0)
        assert idle["shed_rate"] == 0.0  # 0/0 is 0, not a ZeroDivisionError

    def test_shed_only_report_has_explicit_none_percentiles(self):
        report = FrontendReport(
            policy="shed",
            queue_bound=1,
            submitted=5,
            accepted=0,
            shed=5,
            dropped=0,
            decided=0,
            ticks=3,
        )
        assert report.latency_percentile(0.50) is None
        summary = report.summary()
        assert summary["p50_client_latency_slots"] is None
        assert summary["p99_client_latency_slots"] is None
        assert summary["shed_rate"] == 1.0
        assert report.throughput_cmds_per_slot == 0.0


# -- the socket frontend --------------------------------------------------------------


def frontend_factory(**kwargs):
    def make() -> Frontend:
        return Frontend(service(), **kwargs)

    return make


@pytest.mark.net
class TestSocketFrontend:
    @pytest.mark.parametrize("codec", [CODEC_BINARY], ids=["binary"])
    def test_submit_decide_reply_roundtrip_over_uds(self, tmp_path, codec):
        # The codec axis has one value: every frame either side writes.
        path = str(tmp_path / "frontend.sock")
        server = FrontendServer(
            frontend_factory(queue_bound=32), path=path, tick_every=2
        )
        thread = server.serve_once_in_thread(timeout=30.0)
        try:
            outcomes = SocketClient(path=path).submit_all(
                [(f"k{i}", i) for i in range(12)]
            )
        finally:
            thread.join(timeout=30.0)
            server.close()
        assert set(outcomes) == set(range(12))
        assert all(isinstance(o, ClientReply) for o in outcomes.values())
        assert all(o.slot >= 0 and o.latency >= 0 for o in outcomes.values())
        report = server.last_report
        assert report is not None and report.decided == 12
        assert not report.shard.divergence
        # replies agree with the server-side digest placement
        for request_id, reply in outcomes.items():
            assert reply.shard == shard_of(f"k{request_id}", 2)
            assert encode_frame(reply)[5] == codec

    def test_a_reserved_codec_frame_is_a_wire_error_never_unpickled(self):
        # Any UDS/TCP client reaches the session's decoder: a pickle under
        # the reserved codec id 1, or under the reserved value tag 0x0E of
        # the binary codec, must end the session before it is loaded.
        import socket

        for frame, error in (
            (pickle_frame(1), "unknown codec id 1"),
            (tagged_pickle_frame(), "unknown binary tag 0x0e"),
        ):
            server = FrontendServer(frontend_factory(), path="/unused")
            ours, theirs = socket.socketpair()
            try:
                theirs.sendall(encode_frame(ClientSubmit(0, "k0", 0)) + frame)
                theirs.shutdown(socket.SHUT_WR)
                with pytest.raises(WireError, match=error):
                    server._session(ours, 5.0)
            finally:
                ours.close()
                theirs.close()

    def test_shed_rejections_stream_back_mid_session(self, tmp_path):
        path = str(tmp_path / "shed.sock")
        server = FrontendServer(
            frontend_factory(queue_bound=1),
            path=path,
            tick_every=64,  # no ticks mid-burst: the bound does the work
        )
        thread = server.serve_once_in_thread(timeout=30.0)
        keys = keys_of_shard(0, 2, 6)
        try:
            outcomes = SocketClient(path=path).submit_all(
                [(key, i) for i, key in enumerate(keys)]
            )
        finally:
            thread.join(timeout=30.0)
            server.close()
        replies = [o for o in outcomes.values() if isinstance(o, ClientReply)]
        rejections = [o for o in outcomes.values() if isinstance(o, ClientRejected)]
        assert len(replies) == 1  # queue bound 1, one shard: one survivor
        assert len(rejections) == 5
        assert all(r.reason == "shed" and r.shard == 0 for r in rejections)

    def test_server_requires_exactly_one_transport(self):
        with pytest.raises(ConfigurationError):
            FrontendServer(frontend_factory())
        with pytest.raises(ConfigurationError):
            SocketClient(path="/tmp/x", address=("127.0.0.1", 0))
