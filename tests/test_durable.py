"""The durability subsystem: WAL, snapshots, crash recovery, rejoin.

Five layers, mirroring :mod:`repro.durable`'s structure plus the fault
plumbing that carries it through the engines:

* WAL unit tests — framing round-trips and the corruption trio a crash
  can leave behind (torn final record, flipped CRC byte, empty file),
  each of which must *self-heal on open*, never raise;
* snapshot tests — atomic-rename save/load and corrupt-snapshot fallback;
* :class:`~repro.durable.recovery.NodeDurability` recovery folding —
  snapshot seeds the frontier, apply records replay idempotently — plus a
  hypothesis property: for any command stream and snapshot cadence, a
  crashed-and-recovered replica reconstructs the byte-identical per-shard
  KV state of a never-crashed one;
* :class:`~repro.durable.recovery.CatchUpTracker` vote counting — the
  ``t + 1`` adoption rule that keeps Byzantine peers out of adopted state;
* engine integration — the :class:`~repro.engine.faults.CrashRecover`
  fault on the simulator (kill mid-run, restart, replay, catch up from
  peers, agree) and over real sockets (SIGKILL a forked worker, re-fork
  it, re-authenticate to the hub), with crash-*stop* regressions pinning
  that ``restart_after=None`` and the legacy faults behave exactly as
  before.
"""

import os
import pathlib
import pickle
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import CODEC_BINARY
from repro.codec.binary import encode
from repro.durable import (
    ApplyRecord,
    CatchUpReply,
    CatchUpRequest,
    CatchUpTracker,
    DecideRecord,
    DurabilityConfig,
    ProposeRecord,
    ShardSnapshot,
    SnapshotStore,
    WriteAheadLog,
    encode_record,
    scan_records,
)
from repro.engine.events import EventLog, RestartEvent
from repro.engine.faults import Crash, CrashRecover, FaultPlane, Silent, restart_plans
from repro.errors import ConfigurationError
from repro.harness import Scenario, dex_freq
from repro.shard.router import shard_of
from repro.shard.service import KeyValueStore, ShardNode, ShardedService, instance_factory
from repro.types import SystemConfig

from .test_net_engine import assert_no_leaks
from .test_net_wire import Unpickled, tagged_pickle


# -- WAL framing and corruption --------------------------------------------------------


class TestWalRoundtrip:
    def test_append_then_reopen_returns_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        records = [
            ProposeRecord(0, 0, (("set", "k1", 1),)),
            DecideRecord(0, 0, "one-step"),
            ApplyRecord(0, 0, (("set", "k1", 1),)),
        ]
        for record in records:
            wal.append(record)
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.recovered == records
        assert reopened.record_count == 3
        assert reopened.truncated_bytes == 0
        reopened.close()

    def test_missing_file_is_an_empty_log(self, tmp_path):
        result = scan_records(str(tmp_path / "absent.log"))
        assert result.records == [] and result.good_bytes == 0

    def test_oversize_record_rejected_before_write(self):
        with pytest.raises(ValueError):
            encode_record(ApplyRecord(0, 0, (("set", "k", 1),) * 10_000),
                          max_record=64)

    def test_reset_drops_everything(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(DecideRecord(0, 0, "one-step"))
        wal.reset()
        assert wal.record_count == 0
        wal.append(DecideRecord(1, 5, "two-step"))
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.recovered == [DecideRecord(1, 5, "two-step")]
        reopened.close()


@pytest.mark.parametrize("codec", [CODEC_BINARY], ids=["binary"])
class TestWalCorruption:
    """The crash-damage trio: every case recovers cleanly on open.

    The codec axis has one value, the binary codec every record is written
    in — the self-healing contract is framing-level, whatever the bodies.
    """

    def _write(self, path, records, codec):
        wal = WriteAheadLog(path)
        for record in records:
            wal.append(record)
        wal.close()
        assert pathlib.Path(path).read_bytes()[8] == codec  # first codec byte

    def test_torn_final_record_truncated(self, tmp_path, codec):
        path = str(tmp_path / "wal.log")
        good = [ApplyRecord(0, s, (("set", "k", s),)) for s in range(3)]
        self._write(path, good, codec)
        intact = os.path.getsize(path)
        with open(path, "ab") as fh:  # crash mid-append: half a record
            fh.write(encode_record(ApplyRecord(0, 3, (("set", "k", 3),)))[:-5])
        wal = WriteAheadLog(path)
        assert wal.recovered == good
        assert wal.truncated_bytes > 0
        assert os.path.getsize(path) == intact  # tail healed away
        wal.append(ApplyRecord(0, 3, (("set", "k", 3),)))  # append-ready again
        wal.close()
        assert WriteAheadLog(path).recovered == good + [
            ApplyRecord(0, 3, (("set", "k", 3),))
        ]

    def test_flipped_crc_byte_stops_the_scan(self, tmp_path, codec):
        path = str(tmp_path / "wal.log")
        records = [DecideRecord(0, s, "one-step") for s in range(3)]
        self._write(path, records, codec)
        first = len(encode_record(records[0]))
        data = bytearray(pathlib.Path(path).read_bytes())
        data[first + 10] ^= 0xFF  # flip a byte inside the second record
        pathlib.Path(path).write_bytes(bytes(data))
        wal = WriteAheadLog(path)
        assert wal.recovered == records[:1]  # nothing after the hole is trusted
        assert wal.truncated_bytes > 0
        assert os.path.getsize(path) == first
        wal.close()

    def test_empty_file_recovers_to_genesis(self, tmp_path, codec):
        path = str(tmp_path / "wal.log")
        pathlib.Path(path).touch()
        wal = WriteAheadLog(path)
        assert wal.recovered == [] and wal.truncated_bytes == 0
        wal.append(DecideRecord(0, 0, "one-step"))
        wal.close()

    def test_implausible_length_header_stops_the_scan(self, tmp_path, codec):
        path = str(tmp_path / "wal.log")
        self._write(path, [DecideRecord(0, 0, "one-step")], codec)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xff\xff\xff\x00\x00\x00\x00garbage")
        wal = WriteAheadLog(path)
        assert wal.recovered == [DecideRecord(0, 0, "one-step")]
        wal.close()


def _frame(payload: bytes) -> bytes:
    """``payload`` under a valid length + CRC header (WAL and snapshot)."""
    return struct.pack("!II", len(payload), zlib.crc32(payload)) + payload


def _refused_payloads(obj) -> list[bytes]:
    """Payloads no reader may load: three whose first byte is not
    ``CODEC_BINARY`` — a raw pickle (``0x80`` PROTO opcode), the reserved
    id 1 (it was pickle) before a pickle, the reserved id 2 (it was JSON)
    before a valid binary encoding of ``obj`` — and a ``CODEC_BINARY`` one
    whose value is a pickle under the reserved value tag ``0x0E``."""
    unpickled = pickle.dumps(Unpickled(), pickle.HIGHEST_PROTOCOL)
    return [
        unpickled,
        b"\x01" + unpickled,
        b"\x02" + encode(obj),
        bytes((CODEC_BINARY,)) + tagged_pickle(),
    ]


class TestWalCodecCompat:
    """Only a ``CODEC_BINARY`` first byte is decoded: any other first byte
    is corruption, not a format, and its body is never looked at; nor is a
    value under a reserved tag."""

    def test_unknown_first_byte_stops_the_scan(self, tmp_path):
        good = DecideRecord(0, 0, "one-step")
        for index, payload in enumerate(_refused_payloads(good)):
            path = str(tmp_path / f"wal-{index}.log")
            with open(path, "wb") as fh:
                fh.write(encode_record(good))
                fh.write(_frame(payload))
                fh.write(encode_record(DecideRecord(0, 1, "one-step")))
            wal = WriteAheadLog(path)
            assert wal.recovered == [good]  # nothing after the hole is trusted
            assert wal.truncated_bytes > 0
            assert os.path.getsize(path) == len(encode_record(good))
            wal.close()

    def test_unknown_first_byte_snapshot_loads_as_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        for payload in _refused_payloads(ShardSnapshot(slots={0: 2})):
            pathlib.Path(store.path).write_bytes(_frame(payload))
            assert store.load() is None


# -- snapshots -------------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        snapshot = ShardSnapshot(
            slots={0: 2, 1: 1},
            applied={0: ((("set", "a", 1),), ()), 1: ((("set", "b", 2),),)},
            kv={0: {"a": 1}, 1: {"b": 2}},
            seq=3,
        )
        store.save(snapshot)
        assert store.load() == snapshot
        assert not os.path.exists(str(tmp_path / "snapshot.tmp"))  # rename, not copy

    def test_missing_and_corrupt_load_as_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.load() is None
        store.save(ShardSnapshot(slots={0: 1}))
        data = bytearray(pathlib.Path(store.path).read_bytes())
        data[-1] ^= 0xFF
        pathlib.Path(store.path).write_bytes(bytes(data))
        assert store.load() is None  # fall back to genesis + log replay

    def test_newer_save_replaces(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save(ShardSnapshot(seq=1))
        store.save(ShardSnapshot(slots={0: 5}, seq=2))
        assert store.load().seq == 2


# -- recovery folding ------------------------------------------------------------------


def _commit_stream(durability, batches_by_shard):
    """Drive a NodeDurability exactly like ShardNode._settle does."""
    shards = sorted(batches_by_shard)
    slots = {s: 0 for s in shards}
    applied = {s: [] for s in shards}
    kv = {s: {} for s in shards}
    stores = {s: KeyValueStore() for s in shards}
    for shard in shards:
        for slot, batch in enumerate(batches_by_shard[shard]):
            durability.commit(shard, slot, batch)
            for command in batch:
                stores[shard].apply(command)
            applied[shard].append(batch)
            kv[shard] = dict(stores[shard].data)
            slots[shard] = slot + 1
            durability.maybe_snapshot(slots, applied, kv)
    return slots, applied


class TestNodeDurability:
    def test_fresh_directory_recovers_none(self, tmp_path):
        node = DurabilityConfig(str(tmp_path)).node(0)
        assert node.recover(2) is None
        node.close()

    def test_commits_replay_without_snapshot(self, tmp_path):
        config = DurabilityConfig(str(tmp_path), snapshot_every=0)
        writer = config.node(0)
        slots, applied = _commit_stream(
            writer, {0: [(("set", "a", 1),), ()], 1: [(("set", "b", 2),)]}
        )
        writer.close()
        state = config.node(0).recover(2)
        assert state.slots == slots
        assert state.applied == applied
        assert state.replayed_records == 3
        assert not state.from_snapshot

    def test_snapshot_bounds_replay(self, tmp_path):
        config = DurabilityConfig(str(tmp_path), snapshot_every=2)
        writer = config.node(0)
        batches = [(("set", f"k{s}", s),) for s in range(6)]
        slots, applied = _commit_stream(writer, {0: batches})
        writer.close()
        state = config.node(0).recover(1)
        assert state.slots == slots and state.applied == applied
        assert state.from_snapshot
        assert state.replayed_records == 0  # 6 commits, cadence 2: log is empty

    def test_stale_apply_records_skipped(self, tmp_path):
        config = DurabilityConfig(str(tmp_path), snapshot_every=0)
        writer = config.node(0)
        writer.commit(0, 0, (("set", "a", 1),))
        writer.wal.append(ApplyRecord(0, 0, (("set", "a", 99),)))  # duplicate slot
        writer.wal.append(ApplyRecord(0, 5, (("set", "b", 2),)))  # hole ahead
        writer.close()
        state = config.node(0).recover(1)
        assert state.slots == {0: 1}
        assert state.applied == {0: [(("set", "a", 1),)]}

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig("")
        with pytest.raises(ConfigurationError):
            DurabilityConfig("/tmp/x", snapshot_every=-1)


# -- the snapshot-then-replay property (hypothesis) ------------------------------------

_commands = st.lists(
    st.tuples(
        st.just("set"),
        st.sampled_from([f"k{i}" for i in range(8)]),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=24,
)


class TestReplayProperty:
    @settings(max_examples=40, deadline=None)
    @given(commands=_commands, snapshot_every=st.integers(min_value=0, max_value=4),
           batch_size=st.integers(min_value=1, max_value=4))
    def test_recovered_node_matches_never_crashed_kv(
        self, tmp_path_factory, commands, snapshot_every, batch_size
    ):
        """Crash-and-recover == never crashed, for any stream and cadence.

        Commands are batched per shard, committed through the same
        :class:`NodeDurability` calls :class:`ShardNode` makes, then a
        *fresh* :class:`ShardNode` is built over the same directory: its
        ``on_start`` must resume from disk with the byte-identical
        per-shard KV contents and applied-batch digest of a replica that
        simply applied every batch with no crash in between.
        """
        shards = 2
        root = tmp_path_factory.mktemp("durable-prop")
        by_shard = {s: [] for s in range(shards)}
        for command in commands:
            by_shard[shard_of(command[1], shards)].append(command)
        batches_by_shard = {
            s: [tuple(cmds[i : i + batch_size])
                for i in range(0, len(cmds), batch_size)]
            for s, cmds in by_shard.items()
        }
        config = DurabilityConfig(str(root), snapshot_every=snapshot_every)
        writer = config.node(0)
        _commit_stream(writer, batches_by_shard)
        writer.close()

        sys_config = SystemConfig(7, 1)
        node = ShardNode(
            0, sys_config, shards, [], instance_factory(dex_freq(), 0, sys_config),
            durability=config.node(0),
        )
        node.on_start()  # resumes from disk, then asks peers (effects unused)

        reference = {s: KeyValueStore() for s in range(shards)}
        for shard, batches in batches_by_shard.items():
            for batch in batches:
                for command in batch:
                    reference[shard].apply(command)
        for shard in range(shards):
            assert node.stores[shard].data == reference[shard].data
            assert node.applied[shard] == batches_by_shard[shard]
            assert node._slot[shard] == len(batches_by_shard[shard])


class TestIncrementalSnapshot:
    """``maybe_snapshot`` encodes only the batches appended since the last
    snapshot; the file must not be able to tell."""

    _batch = st.lists(
        st.tuples(st.just("set"), st.sampled_from(["a", "b", "c"]), st.integers(0, 99)),
        max_size=3,
    ).map(tuple)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.tuples(st.integers(0, 2), _batch, st.booleans()), max_size=24),
        every=st.integers(min_value=1, max_value=4),
        restart_at=st.none() | st.integers(min_value=0, max_value=23),
    )
    # restart mid-history, then two more snapshots over the recovered prefix
    @example(
        ops=[(s % 3, (("set", "a", s),), True) for s in range(12)],
        every=3, restart_at=5,
    )
    def test_file_is_byte_identical_to_a_full_save(
        self, tmp_path_factory, ops, every, restart_at
    ):
        """Any interleaving of ``commit``/``maybe_snapshot`` across shards,
        with or without a restart in the middle (the new process starts
        with nothing encoded and resumes from its ``RecoveredState``),
        leaves exactly ``SnapshotStore.save(ShardSnapshot(...))`` on disk."""
        root = tmp_path_factory.mktemp("snap-prop")
        config = DurabilityConfig(str(root / "live"), snapshot_every=every)
        reference = SnapshotStore(str(root))
        durability = config.node(0)
        shards = range(3)
        slots = {s: 0 for s in shards}
        applied = {s: [] for s in shards}
        stores = {s: KeyValueStore() for s in shards}
        taken = 0
        for index, (shard, batch, snapshot_now) in enumerate(ops):
            if index == restart_at:
                durability.close()
                durability = config.node(0)
                state = durability.recover(len(shards))
                if state is not None:
                    assert state.applied == applied
                    applied = state.applied
            durability.commit(shard, slots[shard], batch)
            for command in batch:
                stores[shard].apply(command)
            applied[shard].append(batch)
            slots[shard] += 1
            if not snapshot_now:
                continue
            due = durability.snapshot_due
            kv = {s: store.data for s, store in stores.items()}
            assert durability.maybe_snapshot(slots, applied, kv) == due
            if due:
                taken += 1
                reference.save(
                    ShardSnapshot(
                        slots=dict(slots),
                        applied={s: tuple(batches) for s, batches in applied.items()},
                        kv={s: dict(data) for s, data in kv.items()},
                        seq=taken,
                    )
                )
                live = pathlib.Path(durability.snapshots.path).read_bytes()
                assert live == pathlib.Path(reference.path).read_bytes()
        durability.close()

    def test_a_shrunk_history_is_encoded_afresh(self, tmp_path):
        """The store never trusts a prefix longer than what it is handed."""
        store = SnapshotStore(str(tmp_path))
        store.save_state({0: 2}, {0: [(("set", "a", 1),), ()]}, {0: {"a": 1}}, 1)
        store.save_state({0: 1}, {0: [(("set", "b", 2),)]}, {0: {"b": 2}}, 2)
        assert store.load() == ShardSnapshot(
            slots={0: 1}, applied={0: ((("set", "b", 2),),)}, kv={0: {"b": 2}}, seq=2
        )


# -- catch-up vote counting ------------------------------------------------------------


def _reply(round_no, entries=(), frontier=()):
    return CatchUpReply(round_no, tuple(entries), tuple(frontier))


class TestCatchUpTracker:
    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            CatchUpTracker(0)

    def test_adoption_needs_threshold_distinct_voters(self):
        tracker = CatchUpTracker(2)
        tracker.new_round()
        batch = (("set", "a", 1),)
        assert tracker.absorb(1, _reply(1, [(0, 0, batch)]))
        assert tracker.verified(0, 0) is None  # one voucher is not enough
        assert tracker.absorb(2, _reply(1, [(0, 0, batch)]))
        assert tracker.verified(0, 0) == batch

    def test_divergent_batches_do_not_pool(self):
        tracker = CatchUpTracker(2)
        tracker.new_round()
        tracker.absorb(1, _reply(1, [(0, 0, (("set", "a", 1),))]))
        tracker.absorb(2, _reply(1, [(0, 0, (("set", "a", 2),))]))  # Byzantine lie
        assert tracker.verified(0, 0) is None

    def test_stale_round_and_repeat_sender_rejected(self):
        tracker = CatchUpTracker(1)
        tracker.new_round()
        assert not tracker.absorb(1, _reply(0))  # stale round
        assert tracker.absorb(1, _reply(1))
        assert not tracker.absorb(1, _reply(1))  # repeat sender
        assert tracker.replies == 1

    def test_votes_persist_across_rounds_replies_reset(self):
        tracker = CatchUpTracker(2)
        tracker.new_round()
        batch = (("set", "a", 1),)
        tracker.absorb(1, _reply(1, [(0, 0, batch)]))
        tracker.new_round()
        assert tracker.replies == 0
        tracker.absorb(2, _reply(2, [(0, 0, batch)]))
        assert tracker.verified(0, 0) == batch  # round-1 vote still counts

    def test_malformed_and_inflated_entries_skipped(self):
        tracker = CatchUpTracker(1)
        tracker.new_round()
        assert tracker.absorb(
            1,
            _reply(
                1,
                entries=[
                    "garbage",
                    (0, "not-an-int", ()),
                    (0, 999_999_999, ()),  # slot inflation
                    (0, 1, "not-a-tuple"),
                    (0, 1, (("set", "a", 1),)),  # the one good entry
                ],
                frontier=["junk", (0, -5), (0, 999_999_999), (0, 3)],
            ),
        )
        assert tracker.verified(0, 1) == (("set", "a", 1),)
        assert tracker.verified(0, 999_999_999) is None
        assert not tracker.frontier_reached({0: 2})  # the sane (0, 3) counted
        assert tracker.frontier_reached({0: 3})

    def test_frontier_reached_on_empty_round(self):
        tracker = CatchUpTracker(1)
        tracker.new_round()
        assert tracker.frontier_reached({0: 0})

    def test_a_peers_first_claim_for_a_slot_is_the_one_that_counts(self):
        tracker = CatchUpTracker(2)
        honest = (("set", "a", 1),)
        for i in range(1_000):  # one Byzantine peer, a thousand stories
            assert tracker.vote(3, 0, 2, (("set", "a", -i),))
        assert len(tracker._votes[(0, 2)]) == 1  # one entry per (peer, slot)
        assert tracker.verified(0, 2) is None
        tracker.vote(3, 0, 2, honest)  # changing its mind changes nothing
        tracker.vote(1, 0, 2, honest)
        assert tracker.verified(0, 2) is None
        tracker.vote(2, 0, 2, honest)
        assert tracker.verified(0, 2) == honest  # two honest peers carry it

    def test_reply_entries_and_direct_votes_share_the_book(self):
        tracker = CatchUpTracker(2)
        tracker.new_round()
        batch = (("set", "a", 1),)
        tracker.absorb(1, _reply(1, [(0, 0, batch)]))
        assert tracker.vote(2, 0, 0, batch)
        assert tracker.verified(0, 0) == batch

    def test_forget_drops_a_settled_slots_claims(self):
        tracker = CatchUpTracker(1)
        tracker.vote(1, 0, 0, ())
        tracker.vote(1, 0, 1, ())
        tracker.forget(0, 0)
        assert list(tracker._votes) == [(0, 1)]
        assert tracker.verified(0, 0) is None

    def test_claims_off_the_callers_frontier_book_nothing(self):
        tracker = CatchUpTracker(1)
        tracker.new_round()
        slots = {0: 3, 1: 0}
        assert not tracker.vote(1, 0, 2, (), slots)  # below the frontier
        assert not tracker.vote(1, 2, 0, (), slots)  # not one of our shards
        tracker.absorb(1, _reply(1, [(0, 2, ()), (7, 0, ()), (0, 3, ())]), slots)
        assert list(tracker._votes) == [(0, 3)]


# -- the rejoin liveness race ----------------------------------------------------------


def _shard_node(tmp_path, pid, name="race", arrivals=(), shards=1):
    from repro.types import SystemConfig

    config = DurabilityConfig(str(tmp_path / f"{name}{pid}"), snapshot_every=0)
    sys_config = SystemConfig(7, 1)
    return ShardNode(
        0 if pid is None else pid,
        sys_config,
        shards,
        list(arrivals),
        instance_factory(dex_freq(), pid, sys_config),
        durability=config.node(pid),
    )


def _instance_envelope(slot, payload="stale-probe", shard=0):
    from repro.runtime.effects import Envelope

    return Envelope(f"s{shard}.{slot}", payload)


class TestRejoinRace:
    """The residual stall: a replica finishes catch-up, proposes into a
    slot its peers decided *between* its catch-up rounds — their instances
    already went quiet, so without re-serving, its instance never hears
    another message.  The schedule below reproduces that stall
    deterministically and pins both closing triggers."""

    BATCH = (("set", "a", 1),)

    def _settled_peer(self, tmp_path, pid):
        """A peer that has already decided and applied slot 0."""
        peer = _shard_node(tmp_path, pid)
        peer._settle(0, 0, self.BATCH)
        return peer

    def test_stale_envelope_triggers_one_reserve(self, tmp_path):
        """Under the evidence gate: the sender's ``CatchUpRequest`` is what
        makes its stale proposal worth an answer."""
        from repro.durable import SlotDecided

        peer = self._settled_peer(tmp_path, 1)
        peer.on_message(0, CatchUpRequest(1, ((0, 0),)))
        offers = self._offers(peer.on_message(0, _instance_envelope(0)))
        assert offers == [SlotDecided(0, 0, self.BATCH)]
        # once per (sender, shard, slot): a repeat probe is not re-served
        assert not self._offers(peer.on_message(0, _instance_envelope(0)))

    def test_a_never_restarted_straggler_is_not_offered(self, tmp_path):
        """No request, no evidence: a proposal that merely arrives late —
        the seventh of seven on a healthy run — is routed to the instance
        and answered by nobody, however often it happens."""
        peer = self._settled_peer(tmp_path, 1)
        peer._settle(0, 1, ())
        for slot in (0, 1, 0):
            assert not self._offers(peer.on_message(0, _instance_envelope(slot)))
        assert not peer._decided_served
        assert peer._late == {(0, 0): 1}  # the newest late slot, nothing more
        # ... and its next current proposal forgets even that
        peer.on_message(0, _instance_envelope(2))
        assert not peer._late

    def test_current_envelope_is_not_reserved(self, tmp_path):
        from repro.durable import SlotDecided
        from repro.runtime.effects import Send

        peer = self._settled_peer(tmp_path, 1)
        effects = peer.on_message(0, _instance_envelope(1))  # at the frontier
        assert not [e for e in effects if isinstance(e, Send)
                    and isinstance(e.payload, SlotDecided)]

    def test_settle_pushes_to_rejoining_peer(self, tmp_path):
        """Trigger 2: the decision that lands between catch-up rounds is
        pushed to the peer whose request is still outstanding."""
        from repro.durable import SlotDecided
        from repro.runtime.effects import Send
        from repro.types import DecisionKind

        peer = _shard_node(tmp_path, 1)
        peer.on_own_message(0, CatchUpRequest(1, ((0, 0),)))  # 0 is rejoining
        effects = peer._commit(0, 0, self.BATCH, DecisionKind.ONE_STEP)
        pushed = [e for e in effects if isinstance(e, Send) and e.dst == 0
                  and isinstance(e.payload, SlotDecided)]
        assert pushed and pushed[0].payload == SlotDecided(0, 0, self.BATCH)

    def test_adoption_needs_t_plus_one_identical_notices(self, tmp_path):
        from repro.durable import SlotDecided

        node = _shard_node(tmp_path, 0)
        assert node.on_own_message(1, SlotDecided(0, 0, self.BATCH)) == []
        assert node._slot[0] == 0  # one voucher is not enough (t=1)
        # a divergent (Byzantine) notice does not pool with the honest one
        node.on_own_message(2, SlotDecided(0, 0, (("set", "a", 99),)))
        assert node._slot[0] == 0
        effects = node.on_own_message(3, SlotDecided(0, 0, self.BATCH))
        assert node._slot[0] == 1  # t + 1 identical: adopted and settled
        assert node.applied[0] == [self.BATCH]
        assert effects  # the unstuck node logs the slot and moves on
        # repeats for the settled slot are old news
        assert node.on_own_message(4, SlotDecided(0, 0, self.BATCH)) == []

    def test_malformed_notice_rejected(self, tmp_path):
        from repro.durable import SlotDecided

        node = _shard_node(tmp_path, 0)
        for bad in [
            SlotDecided("x", 0, self.BATCH),     # shard not an int
            SlotDecided(5, 0, self.BATCH),       # shard out of range
            SlotDecided(0, -1, self.BATCH),      # negative slot
            SlotDecided(0, 10**9, self.BATCH),   # slot inflation
            SlotDecided(0, 0, "not-a-tuple"),    # batch not a tuple
        ]:
            assert node.on_own_message(1, bad) == []
        assert node._slot[0] == 0 and not node._catchup._votes

    def test_reply_and_notice_vouchers_pool(self, tmp_path):
        """One peer vouches in a catch-up reply, another in a notice: that
        is ``t + 1`` distinct peers behind the identical batch."""
        from repro.durable import SlotDecided

        node = _shard_node(tmp_path, 0)
        node._enter_catchup()  # round 1, recovering
        node.on_own_message(1, CatchUpReply(1, ((0, 0, self.BATCH),), ((0, 1),)))
        assert node._slot[0] == 0  # one voucher is not enough (t=1)
        node.on_own_message(2, SlotDecided(0, 0, self.BATCH))
        assert node._slot[0] == 1 and node.applied[0] == [self.BATCH]
        assert not node._catchup._votes  # settled: its votes are gone

    def test_one_peer_cannot_grow_the_book_or_outvote_two(self, tmp_path):
        from repro.durable import SlotDecided

        node = _shard_node(tmp_path, 0)
        for i in range(1_000):  # slot 2 is ahead of the frontier: votes wait
            node.on_own_message(3, SlotDecided(0, 2, (("set", "a", -i),)))
        assert {k: len(v) for k, v in node._catchup._votes.items()} == {(0, 2): 1}
        for slot in (0, 1, 2):
            for peer in (1, 2):
                node.on_own_message(peer, SlotDecided(0, slot, self.BATCH))
        assert node.applied[0] == [self.BATCH] * 3  # the honest pair's batch
        assert not node._catchup._votes

    def test_notice_below_the_frontier_books_nothing(self, tmp_path):
        from repro.durable import SlotDecided

        peer = self._settled_peer(tmp_path, 1)
        assert peer.on_own_message(2, SlotDecided(0, 0, self.BATCH)) == []
        assert not peer._catchup._votes

    # -- the trigger is gated on evidence: only a top-level proposal re-serves ----------

    @staticmethod
    def _offers(effects, dst=0):
        from repro.durable import SlotDecided
        from repro.runtime.effects import Send

        return [e.payload for e in effects if isinstance(e, Send) and e.dst == dst
                and isinstance(e.payload, SlotDecided)]

    def test_stale_subcomponent_envelopes_are_routed_not_reserved(self, tmp_path):
        """A late ``idb``/``uc`` envelope says nothing about its sender (a
        peer that has itself decided keeps echoing): the instance gets it,
        nobody is offered the slot."""
        from repro.broadcast.idb import IdbEcho, IdbInit
        from repro.runtime.effects import Broadcast, Envelope
        from repro.underlying.oracle import OracleDecision

        peer = self._settled_peer(tmp_path, 1)
        init = peer.on_message(0, _instance_envelope(0, Envelope("idb", IdbInit(self.BATCH))))
        assert not self._offers(init)
        # routed: the instance's IDB answered the init with its echo
        echoes = [e.payload.payload.payload for e in init if isinstance(e, Broadcast)]
        assert echoes == [IdbEcho(self.BATCH, 0)]
        for stale in (
            Envelope("idb", IdbEcho(self.BATCH, 2)),
            Envelope("uc", OracleDecision((0, 0), self.BATCH)),
        ):
            assert not self._offers(peer.on_message(0, _instance_envelope(0, stale)))
        assert not peer._decided_served

    def test_stale_proposal_reserved_once_per_sender_shard_slot(self, tmp_path):
        from repro.core.dex import DexProposal
        from repro.durable import SlotDecided

        peer = self._settled_peer(tmp_path, 1)
        peer._settle(0, 1, ())
        for sender in (0, 2):  # both restarted: the gate is open for both
            peer.on_message(sender, CatchUpRequest(1, ((0, 0),)))
        proposal = DexProposal((("set", "z", 9),))
        served = []
        for sender, slot in [(0, 0), (0, 0), (2, 0), (0, 1), (2, 0), (0, 1)]:
            served += [
                (sender, offer)
                for offer in self._offers(
                    peer.on_message(sender, _instance_envelope(slot, proposal)), sender
                )
            ]
        assert served == [
            (0, SlotDecided(0, 0, self.BATCH)),
            (2, SlotDecided(0, 0, self.BATCH)),
            (0, SlotDecided(0, 1, ())),
        ]

    def test_evidence_is_per_shard_and_its_book_goes_when_it_clears(self, tmp_path):
        """A replica current on shard 0 can still be stuck on shard 1: a
        current proposal clears the evidence (and the offered-slots book)
        of its own shard only."""
        from repro.core.dex import DexProposal
        from repro.durable import SlotDecided

        peer = _shard_node(tmp_path, 1, shards=2)
        for shard in (0, 1):
            peer._settle(shard, 0, self.BATCH)
        peer.on_message(0, CatchUpRequest(1, ((0, 0), (1, 0))))
        proposal = DexProposal(())
        stale = peer.on_message(0, _instance_envelope(0, proposal, shard=0))
        assert self._offers(stale) == [SlotDecided(0, 0, self.BATCH)]
        assert peer._decided_served == {(0, 0): {0}, (0, 1): set()}
        # current on shard 0 (slot 1 is the frontier there) ...
        peer.on_message(0, _instance_envelope(1, proposal, shard=0))
        assert peer._decided_served == {(0, 1): set()}
        # ... so a later straggler there is a straggler, not a rejoiner,
        peer._settle(0, 1, ())
        assert not self._offers(peer.on_message(0, _instance_envelope(1, proposal, shard=0)))
        # while shard 1 is still answered, and still pushed new slots
        stuck = peer.on_message(0, _instance_envelope(0, proposal, shard=1))
        assert self._offers(stuck) == [SlotDecided(1, 0, self.BATCH)]
        assert self._offers(peer._notify_rejoining(1, 0)) == []  # once per slot
        peer._settle(1, 1, ())
        assert self._offers(peer._notify_rejoining(1, 1)) == [SlotDecided(1, 1, ())]
        assert self._offers(peer._notify_rejoining(0, 1)) == []

    def test_echoes_alone_stall_then_opening_the_slot_closes_it(self, tmp_path):
        for order in ("request-first", "proposal-first"):
            (tmp_path / order).mkdir()
            self._stall_closed_by_opening(tmp_path / order, order)

    def _stall_closed_by_opening(self, tmp_path, order):
        """The PR-7 stall under the evidence gate, with the restarted
        replica's ``CatchUpRequest`` in the schedule.  Replica 0 restarts
        and asks around while slot 0 is still open everywhere; peers 1 and
        2 answer (nothing decided yet) and that quorum lets it resume.
        Then every peer settles slot 0 — their first-step messages went
        out while replica 0 was down, so they are gone.  Replica 0's
        echoes for the slot are offered nothing (a sub-component envelope
        is evidence of nothing, request or no request); once the proposal
        it sent on *opening* the slot reaches the settled peers, each
        offers the slot exactly once and ``t + 1`` identical batches
        settle it.  Peers 3–6 see the request and the proposal in
        either order — the hub draws each message's delay independently —
        and offer at whichever comes second."""
        from repro.broadcast.idb import IdbInit
        from repro.core.dex import DexProposal
        from repro.durable import SlotDecided
        from repro.runtime.effects import Broadcast, Envelope, Send

        arrivals = [(0, ("set", "b", 2))]
        crashed = _shard_node(tmp_path, 0, arrivals=arrivals)
        crashed.on_start()  # proposes into slot 0, then dies
        crashed.durability.close()
        node = _shard_node(tmp_path, 0, arrivals=arrivals)
        peers = {pid: _shard_node(tmp_path, pid) for pid in range(1, 7)}

        def deliver(pids, payload):
            """One message of replica 0's to ``pids``: their replies."""
            return {
                pid: [e for e in peers[pid].on_message(0, payload) if isinstance(e, Send)]
                for pid in pids
            }

        (request,) = {e.payload for e in node.on_start() if isinstance(e, Send)}
        assert isinstance(request, CatchUpRequest)
        opened = []
        for pid, (reply,) in deliver((1, 2), request).items():
            opened += node.on_message(pid, reply.payload)
        proposal, _init = [e.payload for e in opened if isinstance(e, Broadcast)]
        assert isinstance(proposal.payload, DexProposal)  # the top-level P-Send
        assert node._slot[0] == 0 and not node._recovering  # resumed, into slot 0
        if order == "request-first":
            deliver((3, 4, 5, 6), request)

        for peer in peers.values():
            peer._settle(0, 0, self.BATCH)
        woken = node.on_message(
            1, _instance_envelope(0, Envelope("idb", IdbInit(self.BATCH)))
        )
        (echo,) = [e.payload for e in woken if isinstance(e, Broadcast)]
        assert not any(deliver(range(1, 7), echo).values())  # nothing comes back
        assert node._slot[0] == 0

        offers = deliver(range(1, 7), proposal)
        if order == "proposal-first":
            assert not any(offers[pid] for pid in (3, 4, 5, 6))  # no evidence yet
            for pid, sends in deliver((3, 4, 5, 6), request).items():
                offers[pid] = [e for e in sends if not isinstance(e.payload, CatchUpReply)]
        assert {pid: self._offers(sends) for pid, sends in offers.items()} == {
            pid: [SlotDecided(0, 0, self.BATCH)] for pid in range(1, 7)
        }  # one each
        assert not any(deliver(range(1, 7), proposal).values())  # ... and once only
        node.on_message(1, offers[1][0].payload)
        assert node._slot[0] == 0  # one voucher is not enough (t=1)
        node.on_message(2, offers[2][0].payload)
        assert node._slot[0] == 1 and node.applied[0] == [self.BATCH]


def _late_proposals_and_reserves(tmp_path, engine, count, **run):
    """One healthy durable service run: how many top-level proposals were
    delivered to a replica that had already settled their slot, and how
    many ``recovery.re_served`` records the run logged."""
    from repro.core.dex import DexProposal
    from repro.engine.events import DeliverEvent
    from repro.runtime.effects import Envelope
    from repro.shard.router import parse_instance

    log = EventLog()
    service = ShardedService(
        n=7, shards=4, seed=5, engine=engine, event_sink=log,
        durability=DurabilityConfig(str(tmp_path)),
    )
    report = service.run(count=count, **run)
    assert not report.divergence and report.commands == count
    settled, late, re_served = set(), 0, 0
    for event in log.events:
        name = getattr(event, "event", None)
        if name == "shard.decide":
            settled.add((event.pid, event.data["shard"], event.data["slot"]))
        elif name == "recovery.re_served":
            re_served += 1
        elif isinstance(event, DeliverEvent) and event.sender != event.pid:
            inner = event.payload
            if isinstance(inner, Envelope) and isinstance(inner.payload, DexProposal):
                late += (event.pid, *parse_instance(inner.component)) in settled
    return late, re_served


# -- the CrashRecover fault ------------------------------------------------------------


class TestCrashRecoverFault:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashRecover(at=-1.0)
        with pytest.raises(ConfigurationError):
            CrashRecover(at=1.0, restart_after=-0.5)

    def test_recovers_property_and_describe(self):
        assert CrashRecover(at=1.0, restart_after=2.0).recovers
        assert not CrashRecover(at=1.0).recovers
        assert "restart_after" in CrashRecover(at=1.0, restart_after=2.0).describe()

    def test_plane_recovering_needs_restart_after(self):
        config = SystemConfig(13, 2)
        plane = FaultPlane(
            config,
            {1: CrashRecover(at=1.0, restart_after=2.0), 2: CrashRecover(at=1.0)},
            failure_model="byzantine",
            algorithm_name="dex",
        )
        assert plane.recovering() == frozenset({1})

    def test_restart_plans_only_for_crash_recover(self):
        config = SystemConfig(13, 2)
        plane = FaultPlane(
            config,
            {1: CrashRecover(at=1.0, restart_after=2.0), 2: Silent()},
            failure_model="byzantine",
            algorithm_name="dex",
        )
        plans = restart_plans(plane, lambda pid: lambda: None)
        assert set(plans) == {1}
        assert plans[1].at == 1.0 and plans[1].restart_after == 2.0

    @pytest.mark.parametrize("engine", ["sync", "mc"])
    def test_rejected_off_sim_and_net(self, engine):
        scenario = Scenario(
            dex_freq(),
            [i % 2 for i in range(7)],
            faults={3: CrashRecover(at=0.1, restart_after=0.2)},
            seed=5,
            engine=engine,
        )
        with pytest.raises(ConfigurationError, match="crash-recovery"):
            scenario.run()


# -- simulator integration -------------------------------------------------------------


class TestSimRecovery:
    def _service(self, tmp_path, **kwargs):
        log = EventLog()
        service = ShardedService(
            n=7,
            shards=2,
            seed=3,
            durability=DurabilityConfig(str(tmp_path), snapshot_every=2),
            event_sink=log,
            **kwargs,
        )
        return service, log

    def test_kill_restart_replay_catchup_agree(self, tmp_path):
        """The acceptance scenario on virtual time: a replica dies mid-run,
        restarts, replays its WAL + snapshot, catches missed slots up from
        peers, and the cross-node digest agreement still holds."""
        service, log = self._service(
            tmp_path, faults={2: CrashRecover(at=1.0, restart_after=1.0)}
        )
        report = service.run(count=12)
        assert not report.divergence
        assert report.commands == 12
        assert sorted(report.result.correct_decisions) == list(range(7))
        assert any(isinstance(e, RestartEvent) and e.pid == 2 for e in log.events)
        recovery = [
            e.event
            for e in log.events
            if getattr(e, "pid", None) == 2
            and getattr(e, "event", "").startswith("recovery.")
        ]
        assert "recovery.replayed" in recovery
        assert "recovery.caught_up" in recovery
        assert (tmp_path / "node2" / "wal.log").exists()

    def test_healthy_run_reserves_only_late_proposals(self, tmp_path):
        """Nobody crashes, so nobody is offered anything: a peer's
        top-level proposal landing after a replica settled the slot (it
        decides one-step off the first ``n - t``) happens hundreds of
        times on this run and is evidence of nothing without a
        ``CatchUpRequest`` — zero ``re_served``, where the ungated rule
        answered every one of them (455 on this seed)."""
        late, re_served = _late_proposals_and_reserves(tmp_path, "sim", count=256)
        assert late > 256
        assert re_served == 0

    def test_wal_replay_from_snapshot_mid_history(self, tmp_path):
        service, log = self._service(
            tmp_path, faults={2: CrashRecover(at=2.0, restart_after=1.5)}
        )
        report = service.run(count=12)
        assert not report.divergence
        replayed = [
            e.data
            for e in log.events
            if getattr(e, "event", "") == "recovery.replayed"
        ]
        assert replayed and replayed[0]["snapshot"]  # resumed from a snapshot
        assert any(v > 0 for v in replayed[0]["slots"].values())

    def test_seeded_run_is_deterministic(self, tmp_path):
        digests = []
        for attempt in range(2):
            root = tmp_path / f"run{attempt}"
            service, _ = self._service(
                root, faults={2: CrashRecover(at=1.0, restart_after=1.0)}
            )
            digests.append(service.run(count=12).digest)
        assert digests[0] == digests[1]

    def test_the_log_holds_one_apply_record_per_settled_slot(self, tmp_path):
        """Replay reads only apply records, so a replica writes nothing
        else: with snapshots off, each log is the replica's settled slots,
        one record each."""
        service = ShardedService(
            n=7, shards=4, seed=11, rate=4,
            durability=DurabilityConfig(str(tmp_path), snapshot_every=0),
        )
        report = service.run(count=48)
        assert not report.divergence and report.commands == 48
        settled = sorted(
            (shard, slot) for shard, batches in report.digest for slot in range(len(batches))
        )
        assert len(settled) == report.slots > 0
        for pid in range(7):
            wal = WriteAheadLog(str(tmp_path / f"node{pid}" / "wal.log"))
            records = wal.recovered
            wal.close()
            assert {type(record) for record in records} == {ApplyRecord}, pid
            assert sorted((r.shard, r.slot) for r in records) == settled, pid

    def test_a_restarted_replica_reproposes_its_twins_batches(self, tmp_path, monkeypatch):
        """No proposal record is needed: a proposal is a pure function of
        the replayed batcher, the arrivals and the seed, so every slot the
        restarted replica opens gets the batch its never-crashed twin
        proposed for it."""
        proposed = []
        propose = ShardNode.propose

        def recording(node, shard, slot, value):
            if node.process_id == 2:
                proposed.append((node, shard, slot, value))
            return propose(node, shard, slot, value)

        monkeypatch.setattr(ShardNode, "propose", recording)

        def run(root, faults):
            proposed.clear()
            service, _ = self._service(root, faults=faults, rate=2)
            assert not service.run(count=24).divergence
            return list(proposed)

        twin = {(shard, slot): batch for _, shard, slot, batch in run(tmp_path / "twin", {})}
        crashed = run(tmp_path / "crash", {2: CrashRecover(at=1.0, restart_after=1.0)})
        first = crashed[0][0]
        reopened = [(shard, slot, batch) for node, shard, slot, batch in crashed if node is not first]
        assert any(batch for _, _, batch in reopened)
        for shard, slot, batch in reopened:
            assert twin[(shard, slot)] == batch, (shard, slot)

    def test_crash_stop_without_restart_stays_dead(self, tmp_path):
        """``restart_after=None`` is crash-stop: the replica never comes
        back and is counted faulty, exactly like the legacy faults."""
        service, log = self._service(
            tmp_path, faults={2: CrashRecover(at=0.5)}
        )
        report = service.run(count=12)
        assert not report.divergence
        assert 2 not in report.result.correct_decisions
        assert not any(isinstance(e, RestartEvent) for e in log.events)

    def test_legacy_faults_unchanged_by_the_restart_plumbing(self):
        """Crash-stop regression pin: a seeded sim run with a legacy fault
        and no durability decides the identical digest whether or not the
        (empty) restart machinery rides along in the deployment."""
        digests = []
        for _ in range(2):
            service = ShardedService(n=7, shards=2, seed=3, faults={2: Silent()})
            digests.append(service.run(count=12).digest)
        assert digests[0] == digests[1] is not None

    def test_scenario_amnesiac_restart_on_plain_consensus(self):
        """Without durability the restart is amnesiac (fresh protocol):
        live when the crash lands before the peers' proposals did."""
        scenario = Scenario(
            dex_freq(),
            [i % 2 for i in range(7)],
            faults={3: CrashRecover(at=0.1, restart_after=0.2)},
            seed=5,
        )
        result = scenario.run()
        assert result.agreement_holds()
        assert sorted(result.correct_decisions) == list(range(7))


# -- socket-engine integration ---------------------------------------------------------


@pytest.mark.net
class TestNetRecovery:
    def test_sigkill_refork_rejoin_agree(self, tmp_path):
        """The acceptance scenario over real sockets: a forked worker is
        SIGKILLed mid-run, re-forked after a delay, replays its on-disk
        state in the child, re-authenticates to the hub, catches up from
        peers, and every replica reports the identical digest."""
        log = EventLog()
        service = ShardedService(
            n=7,
            shards=4,
            seed=3,
            rate=8,
            engine="net",
            faults={2: CrashRecover(at=0.05, restart_after=0.3)},
            durability=DurabilityConfig(str(tmp_path), snapshot_every=2),
            event_sink=log,
        )
        report = service.run(count=48, timeout=45.0)
        assert not report.divergence
        assert report.commands == 48
        assert sorted(report.result.correct_decisions) == list(range(7))
        assert any(isinstance(e, RestartEvent) and e.pid == 2 for e in log.events)
        caught_up = [
            e for e in log.events
            if getattr(e, "event", "") == "recovery.caught_up"
            and getattr(e, "pid", None) == 2
        ]
        assert caught_up, "the restarted worker never finished catching up"
        assert (tmp_path / "node2" / "wal.log").exists()
        assert_no_leaks()

    def test_healthy_run_offers_nothing(self, tmp_path):
        """The sim pin over real sockets.  The hub logs a delivery when it
        queues it and a ``shard.decide`` when the replica's record comes
        back, so "late" here undercounts — it is still never zero."""
        late, re_served = _late_proposals_and_reserves(
            tmp_path, "net", count=64, timeout=45.0
        )
        assert late > 0
        assert re_served == 0
        assert_no_leaks()

    def test_process_crash_without_restart_stays_dead(self):
        """ProcessCrash regression pin: a budgeted crash with no
        ``restart_after`` is still dead-forever — run completes, the
        crashed node reports no decision, nobody relaunches it."""
        log = EventLog()
        service = ShardedService(
            n=7, shards=2, seed=3, engine="net",
            faults={2: Crash(budget=2)}, event_sink=log,
        )
        report = service.run(count=8, timeout=45.0)
        assert not report.divergence
        assert 2 not in report.result.correct_decisions
        assert not any(isinstance(e, RestartEvent) for e in log.events)
        assert_no_leaks()


# -- CLI surface -----------------------------------------------------------------------


class TestCliRecover:
    def test_parse_recover_fault(self):
        from repro.cli import _parse_fault

        pid, fault = _parse_fault("2:recover:0.5:1.5")
        assert pid == 2
        assert isinstance(fault, CrashRecover)
        assert fault.at == 0.5 and fault.restart_after == 1.5
        _, fault = _parse_fault("3:recover:0.5")
        assert fault.at == 0.5 and fault.restart_after is None

    def test_recover_needs_a_crash_time(self):
        import argparse

        from repro.cli import _parse_fault

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("2:recover")
