"""The serialization layer: schema registry, binary codec, golden frames.

Four layers of pinning, from loosest to tightest:

* property tests — for *any* encodable value, ``decode(encode(v)) == v``
  (hypothesis over the full recursive value grammar), and the same for
  every registered record class;
* registry checks — every registered class is a frozen dataclass the
  decoder can rebuild positionally, and the canonical message list below
  covers every registered tag (adding a schema class without extending
  the golden fixture fails here, on purpose);
* golden frames — ``tests/data/codec_frames.bin`` holds the exact wire
  bytes of the canonical messages.  Byte-for-byte equality both ways
  (encode matches the file, the file decodes to the objects) pins the tag
  numbers, field order, varint layout and envelope grammar: any change to
  these is a wire break and must be made append-only;
* relay semantics — lazy decoding yields :class:`repro.codec.Opaque`
  spans whose re-encoding splices the original bytes, the hub's
  zero-decode fast path.

Regenerate the fixture (only after an intentional, append-only schema
change) with::

    PYTHONPATH=src:tests python -c "import test_codec; test_codec.write_golden()"
"""

import os
import pathlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bosco import BoscoVote
from repro.baselines.brasileiro import BrasileiroValue
from repro.baselines.crash_onestep import CrashValue
from repro.baselines.sync_onestep import SyncFlood, SyncRound1
from repro.broadcast.idb import IdbEcho, IdbInit
from repro.codec import CODEC_BINARY, CodecError, Opaque
from repro.codec.binary import (
    SPAN_MEMO_ENTRIES,
    SPAN_MEMO_MAX_BYTES,
    TAG_BLOB,
    TAG_STRUCT,
    BinaryCodec,
    decode,
    encode,
)
from repro.codec import schema
from repro.codec.schema import (
    COMPONENT_TABLE,
    check_registry,
    ensure_registered,
    instance_name,
    parse_instance,
    registered_entries,
)
from repro.core.dex import DexProposal
from repro.durable.recovery import CatchUpReply, CatchUpRequest, SlotDecided
from repro.durable.snapshot import ShardSnapshot
from repro.durable.wal import ApplyRecord, DecideRecord, ProposeRecord
from repro.frontend.socket import ClientRejected, ClientReply, ClientSubmit
from repro.mesh.wire import HubHello, HubReady, HubSaturated, HubStats, MsgRelay
from repro.net.wire import (
    FrameDecoder,
    Hello,
    MsgBroadcast,
    MsgDecide,
    MsgDeliver,
    MsgDeliverBatch,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
    WIRE_VERSION,
    Start,
    Stop,
    WireError,
    encode_frame,
)
from repro.runtime.effects import Deliver, Envelope, ServiceCall
from repro.types import BOTTOM, DecisionKind
from repro.underlying.oracle import OracleDecision, OracleProposal

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "codec_frames.bin"
#: The fixture as it stood before tags 16-18 blob-framed their ``value``:
#: what a peer one commit older writes, which must stay readable.
LEGACY_PATH = GOLDEN_PATH.with_name("codec_frames_unframed_values.bin")


def _consensus_envelope():
    """A realistic data-plane payload: the nested envelope chain of one
    sharded DEX proposal (mux → instance → dex)."""
    return Envelope("mux", Envelope(instance_name(1, 2), Envelope("dex", DexProposal(7))))


def golden_messages():
    """The canonical message list: one instance per registered schema tag,
    in tag order, plus a plain-values frame exercising every value tag.

    APPEND ONLY in spirit: changing an existing entry changes pinned wire
    bytes and is a compatibility break.
    """
    return [
        Hello(3, CODEC_BINARY),                                       # tag 1
        Start(),                                                      # tag 2
        Stop(),                                                       # tag 3
        MsgSend(1, 2, _consensus_envelope(), 3),                      # tag 4
        MsgDeliver(1, _consensus_envelope(), 2),                      # tag 5
        MsgDeliverBatch(((1, "x", 0), (2, None, 1))),                 # tag 6
        MsgDecide(4, (1, 2), DecisionKind.ONE_STEP, 1),               # tag 7
        MsgOutput(2, "idb-deliver", 3, "v"),                          # tag 8
        MsgService(1, ServiceCall("oracle", ((0, 1), 5), ("mux", "uc")), 2),  # 9
        MsgLog(5, "shard.open", {"shard": 0, "slot": 1}),             # tag 10
        ServiceCall("oracle", ((0, 1), 5), ("mux", "uc")),            # tag 11
        Deliver("uc-decide", 2, 5),                                   # tag 12
        MsgBroadcast(1, _consensus_envelope(), 3),                    # tag 13
        DexProposal(1),                                               # tag 16
        IdbInit(2),                                                   # tag 17
        IdbEcho(2, 3),                                                # tag 18
        OracleProposal((0, 1), 5),                                    # tag 19
        OracleDecision((0, 1), 5),                                    # tag 20
        BoscoVote(1),                                                 # tag 21
        BrasileiroValue(0),                                           # tag 22
        CrashValue(9),                                                # tag 23
        SyncRound1(1),                                                # tag 24
        SyncFlood(((0, 1), (2, 0)), (1,)),                            # tag 25
        ProposeRecord(0, 1, (("set", "k", 1),)),                      # tag 32
        DecideRecord(0, 1, "one-step"),                               # tag 33
        ApplyRecord(0, 1, (("set", "k", 1),)),                        # tag 34
        ShardSnapshot({0: 1}, {0: ((("set", "a", 1),),)}, {0: {"a": 1}}, 2),  # 35
        CatchUpRequest(1, ((0, 2),)),                                 # tag 36
        CatchUpReply(1, ((0, 0, (("set", "a", 1),)),), ((0, 1),)),    # tag 37
        SlotDecided(0, 2, (("set", "b", 2),)),                        # tag 38
        ClientSubmit(17, "k3", 42),                                   # tag 48
        ClientReply(17, 1, 5, 2),                                     # tag 49
        ClientRejected(18, "shed", 0),                                # tag 50
        HubHello(-1, CODEC_BINARY),                                   # tag 56
        MsgRelay(1, 2, _consensus_envelope(), 3),                     # tag 57
        HubStats(1, 64, 4096, 32, 30, 2, 0),                          # tag 58
        HubSaturated(1, 513, 512),                                    # tag 59
        HubReady(1, 7),                                               # tag 60
        # one frame of plain values covering the non-struct value tags:
        (None, True, False, 0, -1, 7, 2**40, -(2**40), 3.5, "", "héllo",
         b"\x00\xff", (), (1, (2, 3)), [1, [2]], {"a": 1, 2: None},
         frozenset({1, 2, 3}), BOTTOM, DecisionKind.FAST,
         Envelope("unregistered-component", 1)),
    ]


def golden_bytes():
    return b"".join(encode_frame(m) for m in golden_messages())


def write_golden():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_bytes(golden_bytes())
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")


# -- hypothesis: the round-trip property over the value grammar ------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20)
    | st.sampled_from(list(DecisionKind))
    | st.just(BOTTOM)
)

_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4)
        | st.dictionaries(
            st.text(max_size=8) | st.integers(), inner, max_size=4
        )
        | st.frozensets(st.integers() | st.text(max_size=8), max_size=4)
    ),
    max_leaves=12,
)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(value=_values)
    def test_any_value_round_trips(self, value):
        assert decode(encode(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(value=_values, depth=st.integers(min_value=0, max_value=7))
    def test_wire_messages_round_trip(self, value, depth):
        msg = MsgDeliver(3, value, depth)
        assert decode(encode(msg)) == msg

    @settings(max_examples=50, deadline=None)
    @given(shard=st.integers(min_value=0, max_value=99),
           slot=st.integers(min_value=0, max_value=9_999),
           value=_values)
    def test_instance_envelopes_round_trip(self, shard, slot, value):
        env = Envelope("mux", Envelope(instance_name(shard, slot), value))
        assert decode(encode(env)) == env
        assert parse_instance(instance_name(shard, slot)) == (shard, slot)

    def test_every_registered_class_round_trips(self):
        """The registry-wide property, on the canonical instances."""
        for msg in golden_messages():
            assert decode(encode(msg)) == msg


# -- the registry ----------------------------------------------------------------------


class TestSchemaRegistry:
    def test_registry_is_sound(self):
        assert check_registry() == []

    def test_canonical_list_covers_every_tag(self):
        """Golden coverage: registering a new schema class without adding
        it to ``golden_messages()`` (and regenerating the fixture) fails
        here — the golden file must always pin the whole registry."""
        ensure_registered()
        registered = {entry.tag for entry in registered_entries()}
        covered = set()
        for msg in golden_messages():
            for entry in registered_entries():
                if type(msg) is entry.cls:
                    covered.add(entry.tag)
        assert covered == registered

    def test_component_table_is_append_only_prefix(self):
        """The first seven entries are pinned by existing golden frames."""
        assert COMPONENT_TABLE[:7] == (
            "mux", "idb", "uc", "dex", "bosco", "brasileiro", "crash"
        )

    def test_instance_grammar(self):
        assert instance_name(0, 0) == "s0.0"
        assert parse_instance("s3.17") == (3, 17)
        assert parse_instance("dex") is None
        assert parse_instance("s3") is None
        assert parse_instance("s-1.2") is None


class TestInstanceNameMemo:
    """``parse_instance``/``instance_name`` remember their answers: the
    memo may only ever save time."""

    _names = st.one_of(
        st.text(max_size=30),
        st.builds(instance_name, st.integers(0, 99), st.integers(0, 20_000)),
        st.sampled_from([
            "s\u00b2", "s\u00b2.1", "s01.2", "s1.02", "s\u0663.\u0664", "s.", "s.1", "s1.",
            "s", "", ".", "s1.2.3", "s-1.2", "s+1.2", "s 1.2", "t1.2", "S1.2",
        ]),
    )

    @settings(max_examples=400, deadline=None)
    @given(name=_names)
    def test_memoised_parse_equals_uncached(self, name):
        expected = schema._parse_instance(name)
        assert parse_instance(name) == expected  # a miss, or a stale entry
        assert parse_instance(name) == expected  # the hit
        if expected is not None:
            canonical = instance_name(*expected)
            assert instance_name(*expected) == canonical == f"s{expected[0]}.{expected[1]}"
            assert parse_instance(canonical) == expected

    def test_arabic_indic_digits_parse_as_today(self):
        # isdecimal() and int() both accept them; the memo is keyed by the
        # text, so the look-alike never answers for the canonical name.
        assert parse_instance("s\u0663.\u0664") == (3, 4) == parse_instance("s3.4")
        assert instance_name(3, 4) == "s3.4"

    def test_hostile_names_evict_but_never_grow_or_change_an_answer(self):
        cap = schema.INSTANCE_MEMO_ENTRIES
        assert parse_instance("s1.2") == (1, 2) and instance_name(1, 2) == "s1.2"
        for i in range(cap + 1):
            hostile = f"s{i}.x{i}" if i % 2 else f"s9{i}.{i}"
            assert parse_instance(hostile) == schema._parse_instance(hostile)
            assert instance_name(10_000 + i, i) == f"s{10_000 + i}.{i}"
            assert len(schema._PARSED) <= cap and len(schema._NAMED) <= cap
        assert "s1.2" not in schema._PARSED and (1, 2) not in schema._NAMED  # evicted
        assert parse_instance("s1.2") == (1, 2) and instance_name(1, 2) == "s1.2"

    def test_overlong_names_are_answered_but_not_kept(self):
        long_name = "s1." + "0" * schema.INSTANCE_MEMO_MAX_CHARS + "7"
        assert parse_instance(long_name) == (1, 7)
        assert long_name not in schema._PARSED
        huge = 10 ** schema.INSTANCE_MEMO_MAX_CHARS
        assert instance_name(0, huge) == f"s0.{huge}"
        assert (0, huge) not in schema._NAMED


# -- golden frames ---------------------------------------------------------------------


class TestGoldenFrames:
    def test_fixture_exists(self):
        assert GOLDEN_PATH.exists(), (
            f"golden fixture missing; generate with "
            f"PYTHONPATH=src:tests python -c "
            f"'import test_codec; test_codec.write_golden()'"
        )

    def test_encoding_matches_fixture_byte_for_byte(self):
        assert golden_bytes() == GOLDEN_PATH.read_bytes(), (
            "wire bytes changed for an existing message — this is a wire "
            "format break; schema changes must be append-only"
        )

    def test_fixture_decodes_to_the_canonical_messages(self):
        decoder = FrameDecoder()
        decoded = list(decoder.feed(GOLDEN_PATH.read_bytes()))
        decoder.eof()
        assert decoded == golden_messages()

    def test_fixture_decodes_lazily_too(self):
        """Relay mode: the same bytes parse with blob fields left opaque
        and still splice back to identical wire bytes."""
        decoder = FrameDecoder(lazy=True)
        decoded = list(decoder.feed(GOLDEN_PATH.read_bytes()))
        relayed = b"".join(encode_frame(m) for m in decoded)
        assert relayed == GOLDEN_PATH.read_bytes()


# -- opaque relay semantics ------------------------------------------------------------


class TestOpaque:
    def test_lazy_decode_yields_opaque_blob(self):
        msg = MsgDeliver(1, _consensus_envelope(), 2)
        lazy = BinaryCodec(lazy=True).decode(encode(msg))
        assert type(lazy.payload) is Opaque
        assert lazy.payload.decode() == _consensus_envelope()

    def test_opaque_reencodes_by_splicing(self):
        msg = MsgDeliver(1, _consensus_envelope(), 2)
        wire = encode(msg)
        lazy = BinaryCodec(lazy=True).decode(wire)
        assert encode(lazy) == wire

    def test_opaque_span_splices_as_the_value_it_encodes(self):
        payload = _consensus_envelope()
        wrapped = Opaque(encode(payload))
        assert wrapped.decode() == payload
        assert decode(encode(MsgSend(0, 1, wrapped, 0))) == MsgSend(0, 1, payload, 0)

    def test_opaque_in_batch_entries(self):
        entry_payload = Opaque(encode(DexProposal(4)))
        batch = MsgDeliverBatch(((2, entry_payload, 1),))
        materialized = decode(encode(batch))
        assert materialized.entries == ((2, DexProposal(4), 1),)


# -- the span memo: one decode per distinct blob span -----------------------------------


class TestSpanMemo:
    """A materializing ``BinaryCodec`` decodes each distinct blob span once —
    invisibly: same values as a fresh decode, nothing mutable ever shared,
    nothing malformed or oversized ever cached, never past the entry cap."""

    @settings(max_examples=150, deadline=None)
    @given(value=_values | st.sampled_from(golden_messages()))
    def test_memoised_decode_equals_fresh_decode(self, value):
        codec = BinaryCodec()
        batch = MsgDeliverBatch(((1, Opaque(encode(value)), 0), (2, Opaque(encode(value)), 1)))
        for wire in (encode(MsgDeliver(3, value, 2)), encode(batch)) * 2:
            assert codec.decode(wire) == decode(wire)

    def test_immutable_spans_decode_once_and_are_shared(self):
        decoder = FrameDecoder()
        frame = encode_frame(MsgDeliver(1, _consensus_envelope(), 2))
        first, second = decoder.feed(frame + frame)
        assert first == second and first.payload is second.payload
        # ... per link: another decoder owes this one nothing
        (other,) = FrameDecoder().feed(frame)
        assert other.payload == first.payload and other.payload is not first.payload

    @pytest.mark.parametrize(
        "payload, mutate",
        [
            (("batch", [1, 2]), lambda p: p[1].append(3)),
            (Envelope("dex", {"k": 1}), lambda p: p.payload.update(k=2)),
            ((DexProposal([1]),), lambda p: p[0].value.append(2)),
        ],
    )
    def test_mutable_payloads_are_never_shared(self, payload, mutate):
        codec = BinaryCodec()
        wire = encode(MsgDeliver(1, payload, 0))
        first = codec.decode(wire).payload
        mutate(first)
        second = codec.decode(wire).payload
        assert second == payload != first
        assert not codec._spans

    def test_a_blob_whose_length_lies_raises_every_time_and_is_never_cached(self):
        inner = encode(_consensus_envelope())
        # MsgDeliver(1, <blob declaring one byte more than its value>, 2)
        wire = (
            bytes([TAG_STRUCT, 5]) + encode(1)
            + bytes([TAG_BLOB, len(inner) + 1]) + inner + encode(None)
            + encode(2)
        )
        codec = BinaryCodec()
        value = encode(7)  # the proposal's own blob-framed value: an honest span
        for _ in range(3):
            with pytest.raises(CodecError, match="blob length"):
                codec.decode(wire)
            assert list(codec._spans) == [value]  # nothing of the lying span
        # the same bytes as an honest span still cache, and still decode right
        honest = encode(MsgDeliver(1, _consensus_envelope(), 2))
        assert codec.decode(honest) == codec.decode(honest) == decode(honest)
        assert list(codec._spans) == [value, inner]

    def test_oversized_spans_are_not_cached(self):
        codec = BinaryCodec()
        fits = "x" * (SPAN_MEMO_MAX_BYTES - 3)  # tag + 2-byte varint length
        for payload, cached in ((fits, 1), (fits + "x", 0)):
            wire = encode(MsgDeliver(1, payload, 0))
            assert codec.decode(wire) == codec.decode(wire) == decode(wire)
            assert len(codec._spans) == cached
            codec._spans.clear()

    def test_the_entry_cap_holds_and_the_oldest_span_leaves_first(self):
        codec = BinaryCodec()
        for value in range(SPAN_MEMO_ENTRIES + 1):
            codec.decode(encode(MsgDeliver(1, value, 0)))
            assert len(codec._spans) <= SPAN_MEMO_ENTRIES
        assert len(codec._spans) == SPAN_MEMO_ENTRIES
        assert encode(0) not in codec._spans and encode(1) in codec._spans

    def test_relay_mode_keeps_no_memo(self):
        assert BinaryCodec(lazy=True)._spans is None


# -- codec ids: one codec, the rest reserved -------------------------------------------


class TestFallbackCodecs:
    def test_unknown_codec_id_rejected(self):
        # 1 (it was pickle) and 2 (it was JSON) are reserved, never assigned.
        for codec_id in (77, 2, 1):
            frame = bytearray(encode_frame(Start()))
            frame[5] = codec_id
            with pytest.raises(WireError, match=f"unknown codec id {codec_id}"):
                list(FrameDecoder().feed(bytes(frame)))
        assert list(FrameDecoder().feed(encode_frame(Start()))) == [Start()]


# -- decode robustness -----------------------------------------------------------------


#: Payloads a dialer can put behind a valid frame header, and what the
#: decoder used to raise on each instead of a ``CodecError``.
MALFORMED = {
    "unknown-tag": b"\x20",
    "bad-utf8": b"\x05\x02\xff\xfe",  # UnicodeDecodeError
    "unhashable-member": b"\x10\x01\x08\x00",  # a frozenset holding a list: TypeError
    "too-deep": b"\x07\x01" * 5000 + b"\x00",  # 5 000 nested 1-tuples: RecursionError
}


class TestDecodeErrors:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_is_a_codec_error(self, payload):
        for run in (decode, BinaryCodec().decode, BinaryCodec(lazy=True).decode):
            with pytest.raises(CodecError):
                run(payload)
        # in a frame: a WireError, and the stream stays aligned on the next one
        frame = struct.pack("!I", 2 + len(payload)) + bytes((WIRE_VERSION, CODEC_BINARY))
        decoder = FrameDecoder()
        feed = decoder.feed(frame + payload + encode_frame(Start()))
        with pytest.raises(WireError, match="undecodable frame"):
            next(feed)
        assert list(decoder.feed(b"")) == [Start()]

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode(encode(1) + b"\x00")

    def test_truncated_payload_rejected(self):
        wire = encode(golden_messages()[3])
        with pytest.raises(Exception):
            decode(wire[:-3])

    def test_unknown_value_tag_rejected(self):
        with pytest.raises(Exception):
            decode(b"\x7f\x00")


# -- the compiled codec against the interpreter it replaced -----------------------------
#
# ``tests/codec_reference.py`` is the codec as one generic interpreter, kept
# as the specification.  The production codec compiles an encoder and a
# decoder per record and settles common values inline; these tests hold it
# to the reference byte for byte and object for object.

import dataclasses

from repro.codec import binary

try:
    from . import codec_reference as reference
except ImportError:  # imported top-level: ``PYTHONPATH=src:tests`` (write_golden)
    import codec_reference as reference
from repro.runtime.effects import SERVICE_SENDER


@dataclasses.dataclass(frozen=True)
class LateRecord:
    """Registered (and unregistered again) by one test, after its first encode."""

    shard: int
    note: str


def _record_instances():
    """Any registered record, its fields drawn from the value grammar."""
    entries = list(registered_entries())
    return st.sampled_from(entries).flatmap(
        lambda entry: st.tuples(*[_values] * len(entry.fields)).map(
            lambda fields: entry.cls(*fields)
        )
    )


_components = (
    st.sampled_from(COMPONENT_TABLE)
    | st.builds(instance_name, st.integers(0, 300), st.integers(0, 20_000))
    | st.text(max_size=12)
)
_envelopes = st.builds(Envelope, _components, _values | _record_instances())
_anything = _values | _record_instances() | _envelopes | st.sampled_from(golden_messages())
_spans = _anything.map(lambda value: Opaque(encode(value)))
#: delivery entries of every shape: flat ones, and every way not to be flat.
_entries = st.tuples(
    st.integers(-70, 70) | st.just(SERVICE_SENDER),
    _spans | _anything,
    st.integers(-3, 9_000) | st.sampled_from([63, 64, 8_191, 8_192]),
) | st.lists(_values, max_size=3)
_batches = st.lists(_entries, max_size=5).map(lambda e: MsgDeliverBatch(tuple(e)))
_relayed = st.builds(MsgDeliver, st.integers(0, 6), _spans, st.integers(0, 70))
_wire_values = _anything | _batches | _relayed


def _assert_same_decode(wire):
    """Compiled ≡ reference on ``wire``: lazy, fresh, and through one memo
    decoded twice — equal objects, equal errors, and the same spans kept."""
    for lazy in (True, False):
        assert decode(wire, lazy=lazy) == reference.decode(wire, lazy=lazy)
    codec, memo = BinaryCodec(), {}
    for _ in range(2):
        assert codec.decode(wire) == reference.decode(wire, memo=memo)
        assert list(codec._spans.items()) == list(memo.items())


class TestCompiledAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(value=_wire_values)
    def test_encode_matches_the_reference_bytes(self, value):
        wire = encode(value)
        assert wire == reference.encode(value)
        buf = bytearray(b"head")
        BinaryCodec().encode_into(value, buf)
        assert bytes(buf) == b"head" + wire

    @settings(max_examples=300, deadline=None)
    @given(value=_wire_values)
    def test_decode_matches_the_reference_object(self, value):
        _assert_same_decode(reference.encode(value))

    def test_the_whole_registry_on_its_canonical_instances(self):
        for msg in golden_messages():
            assert encode(msg) == reference.encode(msg)
            _assert_same_decode(encode(msg))

    def test_records_compile_on_first_use_not_at_import(self):
        """``setup_s`` must not pay for the registry: nothing is compiled
        until a record of that class is met."""
        import subprocess
        import sys

        probe = (
            "import repro.net.wire, repro.codec.binary as b; "
            "print(len(b._RECORD_DECODERS), sum(1 for k in b._ENCODERS if "
            "hasattr(k, '__dataclass_fields__')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.split() == ["0", "0"]

    def test_a_class_that_registers_late_is_struct_packed_from_then_on(self):
        """An unregistered class is refused at the sender, by name, and the
        refusal is never cached."""
        tag, value = 120, LateRecord(3, "x")
        for run in (encode, reference.encode):
            with pytest.raises(CodecError, match=r"LateRecord.*@wire_record"):
                run(value)
        assert LateRecord not in binary._ENCODERS
        try:
            schema.register(tag, LateRecord)
            wire = encode(value)
            assert wire == bytes([TAG_STRUCT, tag]) + encode(3) + encode("x")
            assert wire == reference.encode(value)
            assert decode(wire) == value
        finally:
            del schema._BY_TAG[tag], schema._BY_CLASS[LateRecord]
            binary._ENCODERS.pop(LateRecord, None)
            binary._RECORD_DECODERS.pop(tag, None)


class TestDeliveryEntriesLayout:
    """``MsgDeliverBatch.entries`` declares its shape; the flat path is a
    faster way to the generic bytes and the generic object, entry by entry."""

    PAYLOAD = _consensus_envelope()

    def _span(self, size):
        """A span of exactly ``size`` bytes (``None``, or a padded string)."""
        span = encode("p" * (size - 2) if size > 1 else None)
        assert len(span) == size
        return Opaque(span)

    def _edge_batches(self):
        span = Opaque(encode(self.PAYLOAD))
        yield "depths", tuple((1, span, depth) for depth in (0, 63, 64, 8_191, 8_192, -1))
        yield "spans", ((1, self._span(127), 0), (2, self._span(128), 0), (3, self._span(1), 0))
        yield "inline envelope", ((0, self.PAYLOAD, 2), (1, span, 2))  # a hub-hosted reply
        yield "service sender", ((SERVICE_SENDER, span, 1), (-64, span, 1), (-65, span, 1))
        yield "wide sender", ((63, span, 1), (64, span, 1), (True, span, 1))
        yield "list entry", ([1, span, 0], (1, span, 0), (1, span), (1, span, 0, 0), "x")
        yield "depth types", ((1, span, True), (1, span, 2.0), (1, span, None))
        yield "empty", ()

    def test_the_declaration_is_on_the_record_not_in_the_codec(self):
        entry = schema.entry_for_class(MsgDeliverBatch)
        assert entry.layouts == {"entries": binary.DELIVERY_ENTRIES}
        assert all(not e.layouts for e in registered_entries() if e is not entry)

    def test_each_edge_is_the_generic_path(self):
        for name, entries in self._edge_batches():
            batch = MsgDeliverBatch(entries)
            wire = encode(batch)
            assert wire == reference.encode(batch), name
            _assert_same_decode(wire)
            relayed = decode(wire, lazy=True)
            assert encode(relayed) == wire, name
            # an envelope that is not itself a span is walked in relay mode,
            # and its proposal's blob-framed value stays one
            if name != "inline envelope":
                assert relayed == batch, name

    def test_an_empty_span_is_spliced_and_refused_like_the_generic_path(self):
        batch = MsgDeliverBatch(((1, Opaque(b""), 0),))
        wire = encode(batch)
        assert wire == reference.encode(batch)
        assert decode(wire, lazy=True) == batch
        for run in (decode, reference.decode, BinaryCodec().decode):
            with pytest.raises(CodecError, match="blob length"):
                run(wire)

    def test_an_entries_field_that_is_not_a_tuple(self):
        for entries in ([(1, Opaque(encode(7)), 0)], None, "entries", {1: 2}):
            batch = MsgDeliverBatch(entries)
            assert encode(batch) == reference.encode(batch)
            _assert_same_decode(encode(batch))

    def test_a_batch_of_130_entries_has_a_two_byte_count(self):
        batch = MsgDeliverBatch(tuple((i % 7, Opaque(encode(i)), i) for i in range(130)))
        assert encode(batch) == reference.encode(batch)
        _assert_same_decode(encode(batch))

    def test_truncation_at_every_offset_is_a_codec_error(self):
        """Never an ``IndexError``: the flat loop reads ahead by index."""
        for _, entries in self._edge_batches():
            wire = encode(MsgDeliverBatch(entries))
            for cut in range(len(wire)):
                for codec in (BinaryCodec(), BinaryCodec(lazy=True)):
                    with pytest.raises(CodecError):
                        codec.decode(wire[:cut])
                with pytest.raises(CodecError):
                    reference.decode(wire[:cut])

    @settings(max_examples=100, deadline=None)
    @given(batch=_batches, data=st.data())
    def test_corrupting_one_byte_agrees_with_the_reference(self, batch, data):
        wire = bytearray(encode(batch))
        at = data.draw(st.integers(0, len(wire) - 1))
        wire[at] = data.draw(st.integers(0, 255))
        outcomes = []
        for run in (
            lambda: decode(bytes(wire)),
            lambda: reference.decode(bytes(wire)),
            lambda: decode(bytes(wire), lazy=True),
            lambda: reference.decode(bytes(wire), lazy=True),
        ):
            try:
                outcomes.append(run())
            except Exception as exc:  # any error, so long as both raise it
                outcomes.append((type(exc), str(exc)))
        for ours, theirs in (outcomes[:2], outcomes[2:]):
            # repr: a corrupted float may be NaN, which no ``==`` accepts
            assert ours == theirs or repr(ours) == repr(theirs)


class TestShareabilityWhileDecoding:
    """Whether a span may be shared is noted by the decoders as they go (a
    flag on the codec, saved and restored around each span); the reference
    decides it by a second walk (``shareable``).  Same answer, always."""

    @settings(max_examples=300, deadline=None)
    @given(value=_anything)
    def test_memoised_after_decode_iff_the_reference_says_shareable(self, value):
        codec = BinaryCodec()
        decoded = codec.decode(encode(MsgDeliver(1, value, 0)))
        span = encode(value)
        if len(span) <= SPAN_MEMO_MAX_BYTES:
            assert (span in codec._spans) == reference.shareable(decoded.payload)
        else:
            assert not codec._spans

    def test_a_mutable_value_inside_an_immutable_blob_inside_a_batch(self):
        clean = MsgDeliver(4, ("a", 1), 0)  # a record with a blob field of its own
        tainted = MsgDeliver(4, ("a", [1]), 0)
        batch = MsgDeliverBatch(
            ((1, Opaque(encode(clean)), 0), (2, Opaque(encode(tainted)), 0))
        )
        codec = BinaryCodec()
        first, second = codec.decode(encode(batch)), codec.decode(encode(batch))
        assert first == second == decode(encode(batch))
        # kept: the clean outer span and both inner spans but the list's
        assert set(codec._spans) == {encode(clean), encode(("a", 1))}
        assert first.entries[0][1] is second.entries[0][1]
        assert first.entries[1][1] is not second.entries[1][1]
        first.entries[1][1].payload[1].append(2)
        assert codec.decode(encode(batch)) == decode(encode(batch))

    def test_the_outer_flag_survives_a_nested_immutable_span(self):
        """``[list…, blob(clean)]``: decoding the clean inner span must not
        wash the taint off the span around it."""
        inner = MsgDeliver(2, "clean", 0)
        outer = MsgDeliver(1, ([0], inner), 0)  # the list comes first
        codec = BinaryCodec()
        codec.decode(encode(MsgDeliver(0, outer, 0)))
        assert set(codec._spans) == {encode("clean")}
        # and a taint after the nested span is seen too
        codec = BinaryCodec()
        codec.decode(encode(MsgDeliver(0, MsgDeliver(1, (inner, {1: 2}), 0), 0)))
        assert set(codec._spans) == {encode("clean")}

    def test_a_hit_on_a_nested_span_taints_nothing(self):
        inner = MsgDeliver(2, "clean", 0)
        codec = BinaryCodec()
        codec.decode(encode(inner))  # the inner span is known
        outer = MsgDeliver(1, (inner, 7), 0)
        codec.decode(encode(MsgDeliver(0, outer, 0)))
        assert encode(outer) in codec._spans


class TestBlobFramedValues:
    """``DexProposal.value``, ``IdbInit.value`` and ``IdbEcho.value`` are
    blob-framed: the same value bytes under three headers are one span, so
    a replica's decoder materializes a batch once however many messages
    quote it — and the marking reads both ways across the change."""

    BATCH = (("set", "k3", 17), ("set", "k9", 18), ("set", "k3", 19), ("set", "k1", 20))

    def _payloads(self, value):
        """What one slot puts on the wire around one value: the proposal,
        the init, and echoes naming two origins."""
        name = instance_name(0, 3)
        return [
            Envelope(name, DexProposal(value)),
            Envelope(name, Envelope("idb", IdbInit(value))),
            Envelope(name, Envelope("idb", IdbEcho(value, 2))),
            Envelope(name, Envelope("idb", IdbEcho(value, 5))),
        ]

    def test_the_three_records_round_trip(self):
        for value in (self.BATCH, (), 7, BOTTOM, [1, 2]):
            for payload in self._payloads(value):
                wire = encode(payload)
                assert wire == reference.encode(payload)
                assert decode(wire) == BinaryCodec().decode(wire) == payload
                assert encode(decode(wire, lazy=True)) == wire

    def test_equal_value_bytes_decode_to_one_object_per_decoder(self):
        decoder = FrameDecoder()
        frames = b"".join(
            encode_frame(MsgDeliver(sender, payload, 1))
            for sender, payload in enumerate(self._payloads(self.BATCH))
        )
        proposal, init, echo, other = (m.payload for m in decoder.feed(frames))
        values = [proposal.payload.value, init.payload.payload.value,
                  echo.payload.payload.value, other.payload.payload.value]
        assert all(value is values[0] for value in values)
        assert values[0] == self.BATCH
        # four distinct payload spans around it, one value span
        assert sum(span == encode(self.BATCH) for span in decoder._binary._spans) == 1
        assert len(decoder._binary._spans) == 5
        # ... per decoder: another link owes this one nothing
        fresh, *_ = FrameDecoder().feed(frames)
        assert fresh.payload.payload.value == self.BATCH
        assert fresh.payload.payload.value is not values[0]

    @pytest.mark.parametrize(
        "value, mutate",
        [
            ((("set", "k", 1), [2]), lambda v: v[1].append(3)),
        ],
        ids=["list"],
    )
    def test_a_mutable_value_is_never_shared(self, value, mutate):
        codec = BinaryCodec()
        proposal, init, *_ = self._payloads(value)
        first = codec.decode(encode(MsgDeliver(1, proposal, 0))).payload.payload.value
        mutate(first)
        for payload in (proposal, init, proposal):
            again = codec.decode(encode(MsgDeliver(1, payload, 0))).payload
            assert again == payload
        assert not codec._spans  # the taint reaches the spans around it too

    def test_frames_written_before_the_marking_still_decode(self):
        """The parent commit's golden bytes — tags 16-18 with the value
        written in place, no blob header — decode to the same objects."""
        legacy = LEGACY_PATH.read_bytes()
        assert len(GOLDEN_PATH.read_bytes()) - len(legacy) == 2 * 7  # 7 frames quote one
        for lazy_first in (False, True):
            decoder = FrameDecoder(lazy=lazy_first)
            decoded = list(decoder.feed(legacy))
            decoder.eof()
            if lazy_first:  # a relay's view of them, materialized on demand
                decoded = [decode(encode(msg)) for msg in decoded]
            assert decoded == golden_messages()
        assert reference.decode(encode(IdbEcho(2, 3))) == IdbEcho(2, 3)
        unframed = bytes([TAG_STRUCT, 18]) + encode(self.BATCH) + encode(3)
        assert decode(unframed) == IdbEcho(self.BATCH, 3)

    def test_a_relay_splices_them_byte_for_byte(self):
        """The hub never looks inside: payload spans pass through whole,
        and a walked record re-encodes its value span as it found it."""
        for payload in self._payloads(self.BATCH):
            wire = encode(MsgBroadcast(1, payload, 2))
            relayed = decode(wire, lazy=True)
            assert relayed.payload == Opaque(encode(payload))
            assert encode(MsgDeliver(1, relayed.payload, 2)) == encode(MsgDeliver(1, payload, 2))
            assert encode(decode(encode(payload), lazy=True)) == encode(payload)

    def test_a_replica_echoes_a_shared_value_as_its_span(self):
        """A value a replica's memo shares re-encodes in a blob field as the
        span it was decoded from — the bytes it arrived as, not a re-walk.
        Witness: a count written as a two-byte varint survives the echo."""
        padded = b"\x07\x84\x00" + b"".join(encode(c) for c in self.BATCH)
        assert decode(padded) == self.BATCH and padded != encode(self.BATCH)
        init = bytes([TAG_STRUCT, 17, TAG_BLOB, len(padded)]) + padded
        value = BinaryCodec().decode(init).value
        assert padded in encode(IdbEcho(value, 2))
        assert padded not in encode(IdbEcho(self.BATCH, 2))  # an equal, fresh value
        # a value with something mutable inside is never shared, so never spliced
        listed = bytes([TAG_STRUCT, 17]) + encode(Opaque(b"\x07\x81\x00" + encode([2])))
        assert encode(IdbInit(BinaryCodec().decode(listed).value)) == encode(IdbInit(([2],)))


class TestBytesLikeInputs:
    """WAL and snapshot readers pass slices; the codec copies a non-``bytes``
    input once, at the door, and memoises under ``bytes`` either way."""

    MESSAGES = (
        MsgDeliver(1, _consensus_envelope(), 2),
        MsgDeliverBatch(((1, Opaque(encode(_consensus_envelope())), 0), (2, Opaque(encode("x")), 9))),
        ApplyRecord(0, 1, (("set", "k", 1),)),
        ("héllo", b"\x00\xff", [1], {"a": 1}),
    )

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda w: w.__name__)
    def test_every_input_type_decodes_to_the_one_expected_object(self, wrap):
        for msg in self.MESSAGES:
            wire = wrap(encode(msg))
            expected = reference.decode(encode(msg))
            assert decode(wire) == expected
            relayed = decode(wire, lazy=True)
            assert relayed == reference.decode(encode(msg), lazy=True)
            if type(relayed) is MsgDeliver:
                assert type(relayed.payload.data) is bytes
            codec = BinaryCodec()
            assert codec.decode(wire) == codec.decode(wire) == expected  # miss, then hit
            assert all(type(span) is bytes for span in codec._spans)
            assert len(codec._spans) <= SPAN_MEMO_ENTRIES

    def test_a_slice_of_a_larger_buffer(self):
        wire = encode(self.MESSAGES[0])
        buffer = bytearray(b"\x03" + wire + b"tail")
        view = memoryview(buffer)[1 : 1 + len(wire)]
        assert BinaryCodec().decode(view) == self.MESSAGES[0]
        with pytest.raises(CodecError):
            decode(memoryview(buffer)[1:])  # trailing bytes, whatever the type
