"""The sharded multi-consensus service: routing, batching, multiplexing.

Four layers, mirroring :mod:`repro.shard`'s structure:

* pure unit tests for the key→shard mapping and the per-shard batcher;
* multiplexer tests with stub children, pinning the isolation invariant —
  two shards' messages never cross instances — and the Byzantine
  inflation guards;
* sim-engine service tests: exactly-once application, determinism (same
  seed → identical applied batches), contention loser re-proposal,
  open-loop heartbeats, faulty replicas, and the sequential log (one
  shard, one command a slot) under each algorithm it can deploy;
* ``@pytest.mark.net`` cross-engine parity: the same seeded stream
  decides the *identical* digest on the simulator and over real sockets.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.binary import Opaque, encode
from repro.codec.schema import COMPONENT_TABLE
from repro.engine.faults import Equivocate, Silent
from repro.errors import ConfigurationError
from repro.harness import bosco_weak, brasileiro, dex_freq, twostep
from repro.runtime.composite import Envelope
from repro.runtime.effects import Broadcast, Decide, Deliver, Log
from repro.runtime.protocol import Protocol
from repro.shard import (
    INSTANCE_DECIDED_TAG,
    KeyValueStore,
    ShardBatcher,
    ShardMultiplexer,
    ShardedService,
    instance_name,
    parse_instance,
    shard_of,
    shard_workload,
    step_of_kind,
)
from repro.shard.router import UNATTRIBUTED, peek_shard, shard_of_payload
from repro.types import DecisionKind, SystemConfig

from .test_net_engine import assert_no_leaks


class TestShardOf:
    def test_stable_across_calls_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for key in ("k0", "k1", "x", 42):
                shard = shard_of(key, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(key, shards)

    def test_single_shard_owns_everything(self):
        assert all(shard_of(f"k{i}", 1) == 0 for i in range(50))

    def test_keyspace_spreads_over_shards(self):
        owners = {shard_of(f"k{i}", 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_of("k0", 0)

    def test_instance_name_roundtrip(self):
        assert instance_name(3, 17) == "s3.17"
        assert parse_instance("s3.17") == (3, 17)
        assert parse_instance("mux") is None
        assert parse_instance("s3") is None
        assert parse_instance("s3.x") is None


# Envelope components of every wire kind: interned table names, instance
# names (in and out of any plausible shard range) and raw strings —
# including instance look-alikes the instance grammar must reject.
_components = st.one_of(
    st.sampled_from(COMPONENT_TABLE),
    st.builds(instance_name, st.integers(0, 12), st.integers(0, 300)),
    st.text(max_size=6),
    st.sampled_from(["s", "s1", "s1.", "s.2", "s-1.2", "s\u00b2.1", "t1.2"]),
)


def _wrap(components, leaf):
    payload = leaf
    for component in reversed(components):
        payload = Envelope(component, payload)
    return payload


_chains = st.builds(
    _wrap,
    st.lists(_components, max_size=10),
    st.one_of(st.integers(), st.text(max_size=4), st.tuples(st.integers(), st.none())),
)


class TestShardAttribution:
    """``shard_of_payload`` is the one attribution function: the object
    walk and the zero-decode peek off raw bytes must never disagree."""

    @settings(max_examples=300, deadline=None)
    @given(payload=_chains, shards=st.integers(1, 8))
    def test_span_and_object_agree(self, payload, shards):
        expected = shard_of_payload(payload, shards)
        assert expected == UNATTRIBUTED or 0 <= expected < shards
        assert shard_of_payload(Opaque(encode(payload)), shards) == expected

    @settings(max_examples=200, deadline=None)
    @given(payload=_chains, shards=st.integers(1, 8), cut=st.integers(0, 64))
    def test_truncated_span_never_raises_nor_invents_a_shard(
        self, payload, shards, cut
    ):
        data = encode(payload)
        got = peek_shard(data[: min(cut, len(data))], shards)
        assert got in (UNATTRIBUTED, shard_of_payload(payload, shards))

    @settings(max_examples=500, deadline=None)
    @given(
        span=st.binary(max_size=3)
        | st.binary(max_size=24)
        | st.builds(
            lambda kind, shard, rest: bytes([0x0B, kind]) + shard + rest,
            st.sampled_from([0x00, 0x01, 0x01, 0x01, 0x02, 0x05]),
            st.sampled_from([b"", b"\x00", b"\x03", b"\x07", b"\x7f", b"\x80\x01", b"\x83\x00", b"\xff"]),
            st.binary(max_size=12),
        )
        | _chains.map(encode),
        shards=st.sampled_from([1, 2, 4, 8, 127, 128, 129, 300]),
    )
    def test_a_span_answers_exactly_what_the_peek_answers(self, span, shards):
        """The three-byte answer for ``TAG_ENVELOPE, instance, one-byte
        shard in range`` is a shortcut to :func:`peek_shard`, never a
        different opinion: out-of-range shards, two-byte shard varints,
        empty and 1-3 byte spans included."""
        assert shard_of_payload(Opaque(span), shards) == peek_shard(span, shards)

    def test_the_short_answer_reads_the_shard_byte(self):
        for shard in (0, 3, 127):
            span = encode(Envelope(instance_name(shard, 9), "x"))
            assert span[:3] == bytes([0x0B, 0x01, shard])
            assert shard_of_payload(Opaque(span), 128) == shard == peek_shard(span, 128)
            assert shard_of_payload(Opaque(span), shard) == UNATTRIBUTED  # shard >= shards
        wide = encode(Envelope(instance_name(200, 9), "x"))  # a two-byte shard varint
        assert wide[2] >= 0x80
        assert shard_of_payload(Opaque(wide), 300) == 200 == peek_shard(wide, 300)
        assert shard_of_payload(Opaque(wide[:3]), 300) == UNATTRIBUTED

    def test_foreign_shard_is_stepped_over_not_trusted(self):
        nested = Envelope("s9.0", Envelope("mux", Envelope("s2.5", "x")))
        assert shard_of_payload(nested, 4) == 2
        assert peek_shard(encode(nested), 4) == 2
        assert shard_of_payload(nested, 2) == UNATTRIBUTED
        assert peek_shard(encode(nested), 2) == UNATTRIBUTED

    def test_raw_string_component_naming_an_instance(self):
        # Never produced by our encoder (it packs instance names as two
        # varints), but a hostile peer can: the bytes decode to
        # Envelope("s1.4", …), so the peek must say shard 1 as well.
        canonical = encode(Envelope("s1.4", 0))
        crafted = bytes([canonical[0], 0x00, 4]) + b"s1.4" + canonical[4:]
        assert Opaque(crafted).decode() == Envelope("s1.4", 0)
        assert peek_shard(crafted, 4) == 1

    def test_parse_instance_rejects_non_decimal_digits(self):
        # "\u00b2".isdigit() is True but int() refuses it: such a component
        # must be foreign, not a ValueError inside a replica.
        assert parse_instance("s\u00b2.1") is None


class TestPayloadCharging:
    """Charging a stream of routed copies to shards — what mesh steering
    and the benchmark's relay count do — through ``shard_of_payload``."""

    def _messages(self):
        out = []
        for n in range(40):
            payload = Envelope("mux", Envelope(instance_name(n % 5, n), ("m", n)))
            out.append((n % 7, (n + 1) % 7, payload))
        out.append((0, 1, "top-level control value"))
        out.append((1, 2, Envelope("uc", 3)))
        return out

    def _charge(self, as_span):
        charged = Counter()
        for _, _, payload in self._messages():
            raw = Opaque(encode(payload)) if as_span else payload
            charged[shard_of_payload(raw, 4)] += 1
        return charged

    def test_spans_and_objects_attribute_identically(self):
        objects, spans = self._charge(False), self._charge(True)
        assert spans == objects
        assert set(objects) == {0, 1, 2, 3, UNATTRIBUTED}
        assert objects[UNATTRIBUTED] == 8 + 2  # shard 4 is foreign here

    def test_attributing_a_span_decodes_nothing(self, monkeypatch):
        monkeypatch.setattr(
            Opaque, "decode", lambda self: pytest.fail("attribution decoded a payload")
        )
        assert sum(self._charge(True).values()) == len(self._messages())


class TestKeyValueStore:
    def test_apply_set(self):
        store = KeyValueStore()
        store.apply(("set", "x", 1))
        store.apply(("set", "x", 2))
        assert store.data == {"x": 2}
        assert store.log == [("set", "x", 1), ("set", "x", 2)]

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().apply(("del", "x", 0))


class TestShardBatcher:
    def test_size_bound_closes_full_batch(self):
        batcher = ShardBatcher(max_batch=3, max_wait=5)
        for j in range(3):
            batcher.submit(("set", "k", j), now=0)
        assert batcher.ready(now=0)
        assert batcher.head_batch() == (("set", "k", 0), ("set", "k", 1), ("set", "k", 2))

    def test_time_bound_closes_aged_partial_batch(self):
        batcher = ShardBatcher(max_batch=4, max_wait=2)
        batcher.submit(("set", "k", 0), now=0)
        assert not batcher.ready(now=0)
        assert not batcher.ready(now=1)
        assert batcher.ready(now=2)  # waited max_wait slots

    def test_empty_queue_is_never_ready(self):
        assert not ShardBatcher().ready(now=100)

    def test_rival_batch_is_shifted_by_one(self):
        batcher = ShardBatcher(max_batch=2)
        for j in range(3):
            batcher.submit(j, now=0)
        assert batcher.head_batch() == (0, 1)
        assert batcher.rival_batch() == (1, 2)

    def test_rival_equals_head_when_no_concurrency_possible(self):
        batcher = ShardBatcher(max_batch=4)
        batcher.submit(0, now=0)
        assert batcher.rival_batch() == batcher.head_batch() == (0,)

    def test_acknowledge_removes_decided_keeps_losers(self):
        batcher = ShardBatcher(max_batch=2, max_wait=0)
        for j in range(3):
            batcher.submit(j, now=0)
        batcher.acknowledge((1, 2), now=1)  # the rival batch won
        assert batcher.pending == (0,)  # loser stays queued for re-proposal

    def test_acknowledge_ignores_foreign_commands(self):
        batcher = ShardBatcher()
        batcher.submit(0, now=0)
        batcher.acknowledge(("never-queued", 0), now=1)  # Byzantine injection
        assert len(batcher) == 0

    def test_acknowledge_restarts_wait_clock_of_remainder(self):
        batcher = ShardBatcher(max_batch=2, max_wait=2)
        for j in range(3):
            batcher.submit(j, now=0)
        batcher.acknowledge((0, 1), now=5)
        assert not batcher.ready(now=6)  # the survivor's clock restarted at 5
        assert batcher.ready(now=7)

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            ShardBatcher(max_batch=0)
        with pytest.raises(ValueError):
            ShardBatcher(max_wait=-1)


class _Recorder(Protocol):
    """Stub consensus instance: records every delivery, broadcasts once."""

    def __init__(self, process_id, config, proposal=None):
        super().__init__(process_id, config)
        self.proposal = proposal
        self.received = []

    def on_start(self):
        return [Broadcast(("echo", self.proposal))]

    def on_message(self, sender, payload):
        self.received.append((sender, payload))
        return []


class _InstantDecider(_Recorder):
    """Stub instance that decides its proposal immediately on start."""

    def on_start(self):
        return [Decide(self.proposal, DecisionKind.ONE_STEP)]

    def decide_again(self):
        return [Decide(("duplicate", self.proposal), DecisionKind.TWO_STEP)]


class TestShardMultiplexer:
    CONFIG = SystemConfig(4, 0)

    def _mux(self, shards=2, factory=None):
        make = factory or (
            lambda shard, slot, proposal: _Recorder(0, self.CONFIG, proposal)
        )
        return ShardMultiplexer(0, self.CONFIG, make, shards=shards)

    def test_propose_wraps_child_traffic_in_instance_envelope(self):
        mux = self._mux()
        effects = mux.propose(0, 0, "a")
        (broadcast,) = [e for e in effects if isinstance(e, Broadcast)]
        assert isinstance(broadcast.payload, Envelope)
        assert broadcast.payload.component == instance_name(0, 0)

    def test_repeated_propose_is_idempotent(self):
        mux = self._mux()
        assert mux.propose(1, 0, "a")
        assert mux.propose(1, 0, "b") == []

    def test_messages_never_cross_instances(self):
        # The isolation invariant: two shards' (and two slots') envelopes
        # reach exactly the addressed instance, never a neighbour.
        mux = self._mux()
        mux.propose(0, 0, "a")
        mux.propose(1, 0, "b")
        mux.propose(0, 1, "c")
        mux.on_message(2, Envelope(instance_name(0, 0), ("vote", "x")))
        mux.on_message(3, Envelope(instance_name(1, 0), ("vote", "y")))
        received = {
            name: mux.child(name).received
            for name in (instance_name(0, 0), instance_name(1, 0), instance_name(0, 1))
        }
        assert received[instance_name(0, 0)] == [(2, ("vote", "x"))]
        assert received[instance_name(1, 0)] == [(3, ("vote", "y"))]
        assert received[instance_name(0, 1)] == []

    def test_remote_envelope_creates_lagging_instance_without_proposal(self):
        mux = self._mux()
        mux.on_message(1, Envelope(instance_name(1, 3), ("vote", "z")))
        child = mux.child(instance_name(1, 3))
        assert child.proposal is None  # participating, not proposing
        assert child.received == [(1, ("vote", "z"))]

    def test_shard_inflation_guard_rejects_out_of_range_instances(self):
        mux = self._mux(shards=2)
        effects = mux.on_message(1, Envelope("s7.0", ("vote", "evil")))
        assert "s7.0" not in mux._children
        assert all(isinstance(e, Log) for e in effects)

    def test_slot_inflation_guard_rejects_huge_slots(self):
        mux = self._mux()
        mux.on_message(1, Envelope(instance_name(0, 10_000_000), ("vote", "evil")))
        assert instance_name(0, 10_000_000) not in mux._children

    def test_non_canonical_instance_name_is_an_unknown_component(self):
        # "s01.2" parses to (1, 2) but is nobody's name: the canonical child
        # is ensured, the envelope itself goes nowhere — with or without the
        # name memo and the child-lookup shortcut in front of the guards.
        mux = self._mux()
        for _ in range(2):
            effects = mux.on_message(1, Envelope("s01.2", ("vote", "x")))
            assert [e.event for e in effects] == ["unknown-component"]
        assert "s01.2" not in mux._children
        assert mux.child("s1.2").received == []

    def test_inflation_guards_reject_names_the_memo_already_knows(self):
        mux = self._mux(shards=2)
        for name in ("s7.0", instance_name(0, 10_000_000)):
            assert parse_instance(name) is not None  # now memoised
            effects = mux.on_message(1, Envelope(name, ("vote", "evil")))
            assert [e.event for e in effects] == ["unknown-component"]
        assert not mux._children

    def test_first_decide_surfaces_as_tagged_upcall(self):
        mux = self._mux(
            factory=lambda shard, slot, proposal: _InstantDecider(
                0, self.CONFIG, proposal
            )
        )
        effects = mux.propose(1, 2, ("batch",))
        (upcall,) = [e for e in effects if isinstance(e, Deliver)]
        assert upcall.tag == INSTANCE_DECIDED_TAG
        assert upcall.value == (1, 2, ("batch",), DecisionKind.ONE_STEP)
        assert mux.decided[(1, 2)] == (("batch",), DecisionKind.ONE_STEP)

    def test_duplicate_decides_are_dropped(self):
        mux = self._mux(
            factory=lambda shard, slot, proposal: _InstantDecider(
                0, self.CONFIG, proposal
            )
        )
        mux.propose(0, 0, ("batch",))
        name = instance_name(0, 0)
        again = mux.child_call(name, mux.child(name).decide_again())
        assert again == []
        assert mux.decided[(0, 0)] == (("batch",), DecisionKind.ONE_STEP)


class TestFlatWireShape:
    """A :class:`ShardNode` *is* the multiplexer: an instance message is
    one envelope deep at the top of the wire, nothing wraps it."""

    CONFIG = SystemConfig(7, 1)
    SHARDS = 3

    def _node(self):
        from repro.harness import dex_freq
        from repro.shard import ShardNode, instance_factory

        return ShardNode(
            0,
            self.CONFIG,
            self.SHARDS,
            shard_workload(24, seed=2),
            instance_factory(dex_freq(), 0, self.CONFIG),
        )

    def test_first_broadcast_per_shard_is_a_top_level_instance_envelope(self):
        from repro.codec.binary import _COMPONENT_INSTANCE, TAG_ENVELOPE
        from repro.core.dex import DexProposal

        node = self._node()
        assert isinstance(node, ShardMultiplexer)
        first = {}
        for effect in node.on_start():
            if isinstance(effect, Broadcast):
                first.setdefault(parse_instance(effect.payload.component), effect.payload)
        assert sorted(first) == [(k, 0) for k in range(self.SHARDS)]
        for (k, _), payload in first.items():
            assert payload.component == instance_name(k, 0)
            assert isinstance(payload.payload, DexProposal)  # no outer envelope
            assert instance_name(k, 0) in node._children  # the node hosts it itself
            span = encode(payload)
            # the shard is the first component of the span, two bytes in
            assert span[:3] == bytes([TAG_ENVELOPE, _COMPONENT_INSTANCE, k])
            assert peek_shard(span, self.SHARDS) == k
            assert shard_of_payload(Opaque(span), self.SHARDS) == k

    def test_oracle_call_reply_path_is_instance_then_uc(self):
        from repro.broadcast.idb import IdbEcho
        from repro.runtime.effects import ServiceCall

        node = self._node()
        node.on_start()
        name = instance_name(1, 0)
        calls = []
        for origin in range(self.CONFIG.quorum):  # n - t identical deliveries
            for sender in self.CONFIG.processes:
                echo = Envelope(name, Envelope("idb", IdbEcho(("b", origin % 2), origin)))
                calls += [
                    e for e in node.on_message(sender, echo) if isinstance(e, ServiceCall)
                ]
        (call,) = calls  # the instance activated its underlying consensus once
        assert call.reply_path == (name, "uc")

    def test_foreign_table_components_are_still_stepped_over(self):
        # "mux" stays in the append-only component table (its interned index
        # is on the wire of every pre-flattening frame): a chain led by it
        # still attributes to the instance behind it.
        assert COMPONENT_TABLE[0] == "mux"
        legacy = Envelope("mux", Envelope(instance_name(2, 7), ("m",)))
        assert shard_of_payload(legacy, self.SHARDS) == 2
        assert peek_shard(encode(legacy), self.SHARDS) == 2


class TestShardWorkload:
    def test_same_seed_same_stream(self):
        assert shard_workload(40, seed=9) == shard_workload(40, seed=9)
        assert shard_workload(40, seed=9) != shard_workload(40, seed=10)

    def test_closed_loop_arrives_at_slot_zero(self):
        assert all(arrival == 0 for arrival, _ in shard_workload(20, seed=1))

    def test_open_loop_paces_arrivals_by_rate(self):
        stream = shard_workload(10, rate=3, seed=1)
        assert [arrival for arrival, _ in stream] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]

    def test_values_are_the_command_index(self):
        stream = shard_workload(5, seed=2)
        assert [cmd[2] for _, cmd in stream] == [0, 1, 2, 3, 4]

    def test_zipf_concentrates_on_hot_keys(self):
        counts = {}
        for _, (_, key, _) in shard_workload(
            200, keyspace=16, skew="zipf", zipf_alpha=2.0, seed=3
        ):
            counts[key] = counts.get(key, 0) + 1
        # rank-0 weight under alpha=2 is ~63%; uniform would give 12.5/200.
        assert max(counts.values()) > 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shard_workload(10, skew="pareto")
        with pytest.raises(ConfigurationError):
            shard_workload(10, rate=0)
        with pytest.raises(ConfigurationError):
            shard_workload(10, keyspace=0)


class TestStepOfKind:
    def test_fast_paths_cost_one(self):
        assert step_of_kind(DecisionKind.ONE_STEP) == 1
        assert step_of_kind(DecisionKind.FAST) == 1

    def test_two_step_costs_two(self):
        assert step_of_kind(DecisionKind.TWO_STEP) == 2

    def test_underlying_adds_uc_cost(self):
        assert step_of_kind(DecisionKind.UNDERLYING, uc_step_cost=2) == 4
        assert step_of_kind(DecisionKind.UNDERLYING, uc_step_cost=5) == 7
        for spec, steps in ((dex_freq(), 4), (bosco_weak(), 3), (twostep(), 2)):
            assert step_of_kind(DecisionKind.UNDERLYING, 2, spec.steps_before_uc) == steps


class TestShardStreamSinkRecords:
    def test_a_record_naming_no_slot_or_kind_is_skipped(self):
        # The sink runs inside hub 0's loop on what replicas log; each of
        # the first three records used to raise there (ValueError,
        # TypeError, ValueError), the fourth when its rows were folded (KeyError).
        from repro.engine.events import LogEvent
        from repro.shard.metrics import ShardStreamSink

        sink = ShardStreamSink(shards=2)
        slot = {"shard": 1, "slot": 0, "size": 1}
        for record in [
            LogEvent(0.0, 0, "shard.open", {"shard": "x", "slot": 0, "size": 1}),
            LogEvent(0.0, 0, "shard.decide", 5),
            LogEvent(0.0, 0, "shard.decide", {**slot, "kind": "sideways"}),
            LogEvent(0.0, 0, "shard.open", {**slot, "shard": 9}),
            LogEvent(1.0, 1, "shard.open", slot),
            LogEvent(3.0, 1, "shard.decide", {**slot, "kind": "one-step"}),
        ]:
            sink.emit(record)
        assert sink.opens == {(1, 1, 0): 1.0}
        assert sink.decides == {(1, 1, 0): (3.0, DecisionKind.ONE_STEP)}
        (idle, busy), overall = sink.report()
        assert busy["runs"] == overall["runs"] == 1 and idle["runs"] == 0


def _applied_commands(report):
    return sorted(
        command
        for _, batches in report.digest
        for batch in batches
        for command in batch
    )


class TestShardedServiceSim:
    def test_closed_loop_applies_every_command_exactly_once(self):
        service = ShardedService(n=7, shards=2, seed=3)
        report = service.run(count=12)
        assert not report.divergence
        assert report.commands == 12
        workload = [cmd for _, cmd in shard_workload(12, seed=3)]
        assert _applied_commands(report) == sorted(workload)

    def test_states_replay_the_digest(self):
        report = ShardedService(n=7, shards=2, seed=4).run(count=10)
        expected = {}
        for _, (kind, key, value) in shard_workload(10, seed=4):
            expected.setdefault(shard_of(key, 2), {})[key] = value
        for shard, state in report.states.items():
            assert state == expected.get(shard, {})

    def test_shards_partition_the_keyspace(self):
        report = ShardedService(n=7, shards=4, seed=5).run(count=24)
        for shard, batches in report.digest:
            for batch in batches:
                for _, key, _ in batch:
                    assert shard_of(key, 4) == shard

    def test_per_shard_counts_are_the_streams_own(self):
        """The aggregate's message totals are the run's own counters, and an
        ``EventLog`` beside the service's sink counts the same; per-shard
        rows carry none (a missing key, never a 0) — on every seed the same
        numbers."""
        from repro.engine.events import DeliverEvent, EventLog, SendEvent

        def run():
            log = EventLog()
            report = ShardedService(n=7, shards=4, seed=8, event_sink=log).run(count=16)
            return log, report

        (log, report), (_, again) = run(), run()
        totals = report.result.stats
        sends, delivers = len(log.of_type(SendEvent)), len(log.of_type(DeliverEvent))
        assert report.aggregate["sends"] == totals.messages_sent == sends > 0
        assert report.aggregate["delivers"] == totals.messages_delivered == delivers
        assert report.aggregate["throughput_msgs_per_s"] == round(
            totals.messages_delivered / report.duration, 1
        )
        for row in report.per_shard:
            assert not {"sends", "delivers", "throughput_msgs_per_s"} & set(row)
        assert again.aggregate == report.aggregate and again.per_shard == report.per_shard
        assert again.digest == report.digest

    def test_same_seed_identical_digest_under_contention(self):
        # The shard-tagged determinism claim: same seed → identical applied
        # batches, even when half the slots are contended.
        runs = [
            ShardedService(n=7, shards=2, contention=0.5, seed=5).run(count=16)
            for _ in range(2)
        ]
        assert runs[0].digest == runs[1].digest
        assert not runs[0].divergence

    def test_full_contention_still_applies_exactly_once(self):
        report = ShardedService(n=7, shards=2, contention=1.0, seed=6).run(count=12)
        assert not report.divergence
        assert report.commands == 12
        assert _applied_commands(report) == sorted(
            cmd for _, cmd in shard_workload(12, seed=6)
        )

    def test_open_loop_heartbeats_terminate_and_drain(self):
        report = ShardedService(n=7, shards=2, rate=2, seed=7).run(count=10)
        assert not report.divergence
        assert report.commands == 10
        # trickling arrivals force more (smaller or empty) slots than the
        # closed-loop minimum of ceil(commands_per_shard / max_batch).
        assert report.slots >= 4

    def test_silent_replica_tolerated(self):
        report = ShardedService(n=7, shards=2, faults={6: Silent()}, seed=8).run(
            count=8
        )
        assert not report.divergence
        assert report.commands == 8

    def test_report_metrics_shape(self):
        report = ShardedService(n=7, shards=2, seed=9).run(count=12)
        assert len(report.per_shard) == 2
        for row in report.per_shard:
            assert row["slots"] >= 1
            assert row["runs"] == row["slots"]  # one folded stats per slot
        agg = report.aggregate
        assert agg["shards"] == 2
        assert agg["commands"] == 12
        assert agg["throughput_cmds"] > 0
        assert 0.0 <= agg["one_step_frac"] <= 1.0
        assert agg["sends"] > 0 and agg["delivers"] > 0

    def test_uncontended_slots_take_the_one_step_path(self):
        report = ShardedService(n=7, shards=2, contention=0.0, seed=10).run(count=12)
        assert report.aggregate["one_step_frac"] == 1.0
        assert report.aggregate["mean_step"] == 1.0

    def test_sim_and_sync_engines_agree_on_the_digest(self):
        digests = [
            ShardedService(n=7, shards=2, contention=0.3, seed=11, engine=engine)
            .run(count=8)
            .digest
            for engine in ("sim", "sync")
        ]
        # contended slots fall back to the UC: its announcements route back
        # along each slot's reply path ``("s<shard>.<slot>", "uc")``
        assert digests[0] == digests[1] is not None

    def test_rejects_insufficient_resilience(self):
        with pytest.raises(ConfigurationError, match="n > 6t"):
            ShardedService(n=7, t=2)


def _sequential_log(**kwargs):
    """The §1.1 replicated log: one shard, one command a slot."""
    return ShardedService(shards=1, max_batch=1, **kwargs)


class TestServiceAlgorithms:
    """``ShardedService(algorithm=...)``: the served log under each algorithm."""

    @pytest.mark.parametrize(
        "algorithm, steps", [(dex_freq, 1.0), (bosco_weak, 1.0), (twostep, 2.0)]
    )
    def test_uncontended_slot_steps_follow_the_algorithm(self, algorithm, steps):
        report = _sequential_log(algorithm=algorithm(), contention=0.0, seed=0).run(count=12)
        assert not report.divergence and report.commands == report.slots == 12
        assert report.aggregate["mean_max_step"] == steps

    def test_contention_raises_steps(self):
        low, high = (
            _sequential_log(contention=p, seed=5).run(count=8).aggregate["mean_max_step"]
            for p in (0.0, 1.0)
        )
        assert low == 1.0 < high

    def test_silent_replica_still_orders_everything(self):
        report = _sequential_log(contention=0.2, faults={6: Silent()}, seed=7).run(count=5)
        assert not report.divergence
        assert report.commands == report.slots == 5

    def test_state_is_a_replay_of_the_digest(self):
        report = _sequential_log(n=4, algorithm=twostep(), contention=0.5, seed=9).run(count=6)
        assert report.commands == 6
        for shard, batches in report.digest:
            replay = KeyValueStore()
            for batch in batches:
                for command in batch:
                    replay.apply(command)
            assert replay.data == report.states[shard]

    def test_t_and_resilience_come_from_the_algorithm(self):
        assert ShardedService(n=4, algorithm=twostep()).config.t == 1
        with pytest.raises(ConfigurationError, match="n > 5t"):
            ShardedService(n=5, t=1, algorithm=bosco_weak())

    def test_a_crash_model_algorithm_refuses_a_byzantine_fault(self):
        with pytest.raises(ConfigurationError, match="crash-model"):
            ShardedService(algorithm=brasileiro(), faults={3: Equivocate(1, 2)})

    def test_contention_is_validated(self):
        with pytest.raises(ConfigurationError):
            ShardedService(contention=1.5)


@pytest.mark.net
class TestShardedServiceNet:
    def test_sim_and_net_decide_identical_batches(self):
        # Cross-engine determinism over real forked processes: contention 0
        # keeps proposals timing-independent, so validity pins every batch
        # and the two engines must produce byte-identical digests.
        reports = {
            engine: ShardedService(
                n=7, shards=2, contention=0.0, seed=11, engine=engine
            ).run(count=10, timeout=25.0)
            for engine in ("sim", "net")
        }
        assert not reports["sim"].divergence
        assert not reports["net"].divergence
        assert reports["sim"].digest == reports["net"].digest is not None
        assert reports["net"].commands == 10
        assert_no_leaks()

    def test_a_healthy_slot_pays_for_its_consensus_frames_and_nothing_else(self, tmp_path):
        """Frame census of a healthy durable star run, off the hub's own
        event stream (the ``n`` sends of one ``MsgBroadcast`` share one
        payload span, a ``MsgSend`` has a span to itself): no ``MsgOutput``
        — a decided slot is not re-surfaced as a runner output —, no
        ``MsgSend`` — nobody restarted, so nobody is offered a slot —, and
        per replica and opened instance exactly the nine broadcasts DEX
        over IDB costs: the proposal, the init, and one echo per origin."""
        from collections import Counter

        from repro.durable import DurabilityConfig
        from repro.engine.events import EventLog, LogEvent, OutputEvent, SendEvent

        log = EventLog()
        report = ShardedService(
            n=7, shards=2, seed=5, engine="net", event_sink=log,
            durability=DurabilityConfig(str(tmp_path)),
        ).run(count=48, timeout=45.0)
        assert not report.divergence and report.commands == 48
        assert not log.of_type(OutputEvent)
        assert not any(report.result.outputs.values())
        frames: dict[int, SendEvent] = {}
        copies: Counter[int] = Counter()
        for send in log.of_type(SendEvent):
            frames[id(send.raw)] = send  # the log keeps every span alive: ids are spans
            copies[id(send.raw)] += 1
        assert set(copies.values()) == {7}  # every data frame was a broadcast
        broadcasts = Counter(
            (send.pid, send.payload.component) for send in frames.values()
        )
        opened = {
            (e.pid, instance_name(e.data["shard"], e.data["slot"]))
            for e in log.of_type(LogEvent)
            if e.event == "shard.open"
        }
        assert set(broadcasts) == opened and len(opened) == 7 * report.slots
        last = {instance_name(shard, len(batches) - 1) for shard, batches in report.digest}
        for (pid, name), count in broadcasts.items():
            # the run ends at the seventh digest: echoes of a shard's last
            # slot may still be on their way then
            assert count == 9 or (name in last and count < 9), (pid, name, count)
        assert not [e for e in log.of_type(LogEvent) if e.event.startswith("recovery.")]
        assert_no_leaks()
