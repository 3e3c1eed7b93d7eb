"""Wire-protocol edge cases: framing, caps, codecs, truncation.

Pure in-memory tests of :mod:`repro.net.wire` — no sockets, no processes —
covering the decode paths a hostile or dying peer exercises: split reads
across frame boundaries, oversized declared lengths, streams that end
mid-frame, and version/codec mismatches.  Every frame is built by the
binary codec, the only one that writes.
"""

import pickle
import struct

import pytest

from repro.net.wire import (
    CODEC_BINARY,
    WIRE_VERSION,
    FrameDecoder,
    FrameTooLarge,
    Hello,
    MsgDecide,
    MsgDeliver,
    MsgDeliverBatch,
    MsgSend,
    Start,
    Stop,
    TruncatedStream,
    WireError,
    encode_frame,
    encode_frame_into,
)


class Unpickled:
    """A pickle that fails the test if anything unpickles it."""

    def __reduce__(self):
        return (pytest.fail, ("a payload that is not CODEC_BINARY was unpickled",))


def pickle_frame(codec: int = 1) -> bytes:
    """A well-formed frame whose payload is a pickle of :class:`Unpickled`
    under codec byte ``codec`` (id 1 was the pickle codec's)."""
    payload = pickle.dumps(Unpickled(), pickle.HIGHEST_PROTOCOL)
    return struct.pack("!I", 2 + len(payload)) + bytes((WIRE_VERSION, codec)) + payload


def tagged_pickle() -> bytes:
    """A binary-codec value under the reserved value tag ``0x0E`` (it was
    the pickle escape): varint length, then a pickle of :class:`Unpickled`."""
    raw = pickle.dumps(Unpickled(), pickle.HIGHEST_PROTOCOL)
    length = bytearray()
    n = len(raw)
    while n > 0x7F:
        length.append((n & 0x7F) | 0x80)
        n >>= 7
    length.append(n)
    return b"\x0e" + bytes(length) + raw


def binary_frame(payload: bytes) -> bytes:
    """``payload`` behind a valid ``CODEC_BINARY`` frame header, unchecked."""
    header = bytes((WIRE_VERSION, CODEC_BINARY))
    return struct.pack("!I", 2 + len(payload)) + header + payload


def tagged_pickle_frame() -> bytes:
    """:func:`tagged_pickle` as the payload of a well-formed binary frame."""
    return binary_frame(tagged_pickle())


def decode_all(data: bytes, max_frame: int = 1 << 20) -> list:
    decoder = FrameDecoder(max_frame)
    frames = list(decoder.feed(data))
    decoder.eof()
    return frames


class TestRoundTrip:
    def test_wire_messages_roundtrip(self):
        messages = [
            Hello(3),
            Start(),
            MsgSend(src=1, dst=2, payload={"value": 7}, depth=4),
            MsgDeliver(sender=0, payload=(1, "x"), depth=1),
            MsgDecide(pid=2, value=1, kind="one-step", step=1),
            Stop(),
        ]
        data = b"".join(encode_frame(m) for m in messages)
        assert all(frame[5] == CODEC_BINARY for frame in map(encode_frame, messages))
        assert decode_all(data) == messages

    def test_unknown_codec_on_encode(self):
        for codec in (1, 2, 77):
            buf = bytearray(b"kept")
            with pytest.raises(WireError, match=f"unknown codec id {codec}"):
                encode_frame_into("x", buf, codec)
            assert buf == b"kept"


class TestSplitReads:
    def test_one_byte_at_a_time(self):
        messages = [Hello(1), MsgSend(1, 2, "payload", 0), Stop()]
        data = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for i in range(len(data)):
            out.extend(decoder.feed(data[i : i + 1]))
        decoder.eof()
        assert out == messages

    def test_split_exactly_at_frame_boundary(self):
        first, second = encode_frame(Hello(0)), encode_frame(Hello(1))
        decoder = FrameDecoder()
        assert list(decoder.feed(first)) == [Hello(0)]
        assert decoder.pending_bytes == 0
        assert list(decoder.feed(second)) == [Hello(1)]

    def test_split_inside_length_prefix(self):
        data = encode_frame(Hello(9))
        decoder = FrameDecoder()
        assert list(decoder.feed(data[:2])) == []
        assert decoder.pending_bytes == 2
        assert list(decoder.feed(data[2:])) == [Hello(9)]

    def test_two_frames_and_a_tail_in_one_read(self):
        tail_frame = encode_frame(Stop())
        data = encode_frame(Hello(0)) + encode_frame(Start()) + tail_frame[:3]
        decoder = FrameDecoder()
        assert list(decoder.feed(data)) == [Hello(0), Start()]
        assert decoder.pending_bytes == 3
        assert list(decoder.feed(tail_frame[3:])) == [Stop()]

    def test_abandoned_iteration_keeps_the_unread_frames(self):
        # The hub's handshake stops at the Hello and hands the decoder to
        # the pump: frames that arrived in the same read must survive.
        data = b"".join(encode_frame(m) for m in (Hello(2), Start(), Stop()))
        decoder = FrameDecoder()
        for msg in decoder.feed(data + b"\x00"):
            assert msg == Hello(2)
            break
        assert decoder.pending_bytes == len(data) + 1 - len(encode_frame(Hello(2)))
        assert list(decoder.feed(b"")) == [Start(), Stop()]
        assert decoder.pending_bytes == 1

    def test_bad_frame_mid_read_is_consumed_with_its_predecessors(self):
        bad = bytearray(encode_frame(Start()))
        bad[4] = 99  # version byte
        decoder = FrameDecoder()
        feed = decoder.feed(encode_frame(Hello(1)) + bytes(bad) + encode_frame(Stop()))
        assert next(feed) == Hello(1)
        with pytest.raises(WireError, match="version mismatch"):
            next(feed)
        assert list(decoder.feed(b"")) == [Stop()]


class TestSizeCaps:
    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"x" * 100, max_frame=50)

    def test_encode_allows_exactly_max(self):
        frame = encode_frame(b"x" * 100)
        body_len = len(frame) - 4
        assert encode_frame(b"x" * 100, max_frame=body_len)  # boundary is inclusive

    def test_decoder_rejects_declared_oversize_before_the_body_arrives(self):
        # Only the 4-byte length prefix of a "frame" claiming a huge body:
        # the decoder must refuse on the prefix alone, without buffering.
        prefix = struct.pack("!I", 10 * 1024 * 1024)
        decoder = FrameDecoder(max_frame=1024)
        with pytest.raises(FrameTooLarge, match="cap is 1024"):
            list(decoder.feed(prefix))

    def test_decoder_rejects_undersized_body(self):
        data = struct.pack("!I", 1) + bytes([WIRE_VERSION])
        with pytest.raises(WireError, match="too short"):
            list(FrameDecoder().feed(data))


class TestTruncation:
    def test_eof_mid_frame_raises(self):
        data = encode_frame(MsgSend(0, 1, "value", 0))
        decoder = FrameDecoder()
        assert list(decoder.feed(data[:-5])) == []
        with pytest.raises(TruncatedStream):
            decoder.eof()

    def test_eof_on_clean_boundary_is_silent(self):
        decoder = FrameDecoder()
        assert list(decoder.feed(encode_frame(Stop()))) == [Stop()]
        decoder.eof()

    def test_eof_on_empty_stream_is_silent(self):
        FrameDecoder().eof()


class TestVersioning:
    def _frame_with_header(self, version: int, codec: int) -> bytes:
        good = encode_frame("payload")
        body = bytearray(good)
        body[4] = version
        body[5] = codec
        return bytes(body)

    def test_version_mismatch_is_rejected(self):
        data = self._frame_with_header(version=WIRE_VERSION + 1, codec=CODEC_BINARY)
        with pytest.raises(WireError, match="wire version mismatch"):
            list(FrameDecoder().feed(data))

    def test_version_mismatch_names_both_versions(self):
        data = self._frame_with_header(version=9, codec=CODEC_BINARY)
        with pytest.raises(WireError, match=r"v9.*v1"):
            list(FrameDecoder().feed(data))

    def test_unknown_codec_id_is_rejected(self):
        # 1 (it was pickle) and 2 (it was JSON) are reserved, never
        # reassigned; a codec-1 frame's pickle must never be loaded.
        for data, codec in (
            (pickle_frame(1), 1),
            (self._frame_with_header(version=WIRE_VERSION, codec=2), 2),
            (self._frame_with_header(version=WIRE_VERSION, codec=99), 99),
        ):
            for lazy in (False, True):
                with pytest.raises(WireError, match=f"unknown codec id {codec}"):
                    list(FrameDecoder(lazy=lazy).feed(data))

    def test_the_reserved_value_tag_is_never_unpickled(self):
        for lazy in (False, True):
            decoder = FrameDecoder(lazy=lazy)
            feed = decoder.feed(tagged_pickle_frame() + encode_frame(Stop()))
            with pytest.raises(WireError, match="unknown binary tag 0x0e"):
                next(feed)
            assert list(decoder.feed(b"")) == [Stop()]

    def test_frames_after_a_good_one_still_checked(self):
        data = encode_frame(Hello(0)) + self._frame_with_header(99, CODEC_BINARY)
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            list(decoder.feed(data))


class TestDeliverBatch:
    """Coalesced delivery frames (the hub's delivery-batching path)."""

    def test_batch_roundtrips_preserving_entry_order(self):
        batch = MsgDeliverBatch(
            entries=((0, {"v": 1}, 2), (3, (1, "x"), 0), (0, None, 5))
        )
        assert decode_all(encode_frame(batch)) == [batch]

    def test_batch_mixed_with_plain_delivers_on_one_stream(self):
        messages = [
            MsgDeliver(sender=1, payload="a", depth=0),
            MsgDeliverBatch(entries=((2, "b", 1), (3, "c", 2))),
            MsgDeliver(sender=4, payload="d", depth=3),
        ]
        data = b"".join(encode_frame(m) for m in messages)
        assert decode_all(data) == messages

    def test_oversized_batch_raises_frame_too_large(self):
        # The hub catches this and falls back to per-message frames.
        huge = MsgDeliverBatch(
            entries=tuple((0, f"{i}:" + "x" * 1024, 0) for i in range(64))
        )
        with pytest.raises(FrameTooLarge):
            encode_frame(huge, max_frame=4096)

    def test_batch_is_immutable(self):
        batch = MsgDeliverBatch(entries=((0, "x", 0),))
        with pytest.raises(Exception):
            batch.entries = ()


class _Recorder:
    """A hosted protocol that records what it is handed."""

    def __init__(self):
        from repro.types import SystemConfig

        self.process_id, self.config, self.got = 3, SystemConfig(7, 1), []

    def on_message(self, sender, payload):
        self.got.append((sender, payload))
        return []


class _Wire:
    """A node's hub socket, in memory: what the node writes, framed."""

    def __init__(self):
        self.sent = bytearray()

    def sendall(self, data):
        self.sent += data

    def frames(self):
        return decode_all(bytes(self.sent))


class TestUndecodablePayload:
    """A payload span a faulty sender made undecodable reaches a replica
    unread (the hub relays spans as they are).  The replica drops that one
    delivery, reports it to hub 0 against its sender, and keeps the link and
    every other delivery of the frame; broken framing still fails the link."""

    BAD = b"\x20"  # a value tag no decoder knows

    def _dispatch(self, data):
        from repro.net.node import NodeWorker

        protocol, wire = _Recorder(), _Wire()
        worker = NodeWorker(3, protocol, [wire])
        for msg in FrameDecoder().feed(data):
            assert worker._dispatch(msg)
        return protocol.got, wire.frames()

    def _batch(self, bad, sender=2, depth=1):
        from repro.codec import Opaque
        from repro.codec.binary import encode

        good = Opaque(encode(("vote", 7)))
        return MsgDeliverBatch(((1, good, 0), (sender, Opaque(bad), depth), (4, good, 2)))

    def test_the_middle_entry_of_a_batch_is_dropped_and_attributed(self):
        from repro.net.wire import MsgLog

        got, reports = self._dispatch(encode_frame(self._batch(self.BAD)))
        assert got == [(1, ("vote", 7)), (4, ("vote", 7))]
        assert reports == [MsgLog(3, "wire.undecodable", {"sender": 2})]

    @pytest.mark.parametrize(
        "bad, sender, depth",
        [(BAD * 200, 2, 1), (BAD, 64, 1), (BAD, 2, 9_000)],
        ids=["long-span", "wide-sender", "wide-depth"],
    )
    def test_an_entry_off_the_flat_path_is_dropped_too(self, bad, sender, depth):
        from repro.net.wire import MsgLog

        got, reports = self._dispatch(encode_frame(self._batch(bad, sender, depth)))
        assert got == [(1, ("vote", 7)), (4, ("vote", 7))]
        assert reports == [MsgLog(3, "wire.undecodable", {"sender": sender})]

    def test_every_malformed_span_is_dropped(self):
        from .test_codec import MALFORMED

        for bad in MALFORMED.values():
            got, reports = self._dispatch(encode_frame(self._batch(bad)))
            assert len(got) == 2 and [r.data for r in reports] == [{"sender": 2}]

    def test_a_lone_delivery_is_dropped(self):
        from repro.codec import Opaque
        from repro.net.wire import MsgLog

        got, reports = self._dispatch(encode_frame(MsgDeliver(5, Opaque(self.BAD), 4)))
        assert got == [] and reports == [MsgLog(3, "wire.undecodable", {"sender": 5})]

    def test_the_next_frame_in_the_buffer_still_decodes(self):
        from repro.codec import Opaque

        data = (
            encode_frame(self._batch(self.BAD))
            + encode_frame(MsgDeliver(5, Opaque(self.BAD), 4))
            + encode_frame(MsgDeliver(6, "after", 5))
            + encode_frame(Start())
        )
        frames = list(FrameDecoder().feed(data))
        assert [type(f) for f in frames] == [MsgDeliverBatch, MsgDeliver, MsgDeliver, Start]
        assert frames[0].entries[1] == (2, Opaque(self.BAD), 1)
        assert frames[2] == MsgDeliver(6, "after", 5)

    def test_the_relay_decoder_is_unchanged(self):
        batch = self._batch(self.BAD)
        assert list(FrameDecoder(lazy=True).feed(encode_frame(batch))) == [batch]

    def test_broken_framing_still_fails_the_link(self):
        from repro.codec import Opaque

        frame = bytearray(encode_frame(MsgDeliver(5, Opaque(self.BAD), 4)))
        frame[-4] = 0x40  # the span's length now runs past the frame
        for data in (
            bytes(frame),
            encode_frame(MsgSend(5, 3, Opaque(self.BAD), 4)),  # not a delivery
        ):
            with pytest.raises(WireError, match="undecodable frame"):
                list(FrameDecoder().feed(data))
