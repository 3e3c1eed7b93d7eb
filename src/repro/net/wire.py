"""The framed wire protocol of the socket engine: framing only.

Every frame on a link is::

    +----------------+---------+----------+-----------------+
    | length (4B BE) | version | codec id | payload (bytes) |
    +----------------+---------+----------+-----------------+

``length`` counts the body (version byte + codec byte + payload), so a
reader can always buffer exactly one frame without understanding it.  The
version byte rejects cross-version clusters at the first frame instead of
letting them mis-decode each other's payloads.

This module owns *framing* — length prefixes, size caps, version checks —
and nothing else.  Payload bytes are produced and consumed by
:mod:`repro.codec`: every frame is ``CODEC_BINARY``, struct-packed records
from the schema registry, relayable without decoding (see
:class:`repro.codec.Opaque`).  A frame with any other codec byte is a
:class:`WireError` before a byte of its payload is looked at — ids 1 and 2
are reserved for codecs that are gone.

Size caps are enforced on both sides: :func:`encode_frame` refuses to
build an oversized frame and :class:`FrameDecoder` rejects an oversized
*declared* length before buffering a single payload byte, so a garbage or
hostile length prefix cannot balloon memory.

:class:`FrameDecoder` is sans-IO: feed it whatever ``recv`` returned —
half a header, three frames and a tail, one byte at a time — and it yields
exactly the complete frames.  :meth:`FrameDecoder.eof` distinguishes a
clean end-of-stream from a peer that died mid-frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator

from ..codec import CODEC_BINARY, BinaryCodec, CodecError, Opaque
from ..codec.binary import DELIVERY_ENTRIES, decode, encode, encode_into
from ..codec.schema import wire_record
from ..errors import ReproError
from ..runtime.effects import ServiceCall
from ..types import ProcessId, slot_init

__all__ = [
    "WIRE_VERSION",
    "CODEC_BINARY",
    "DEFAULT_MAX_FRAME",
    "DELIVERY_BATCH_CHUNK",
    "WireError",
    "FrameTooLarge",
    "TruncatedStream",
    "encode_frame",
    "encode_frame_into",
    "batch_frames",
    "FrameDecoder",
    "Hello",
    "Start",
    "Stop",
    "MsgSend",
    "MsgDeliver",
    "MsgDeliverBatch",
    "MsgDecide",
    "MsgOutput",
    "MsgService",
    "MsgLog",
    "MsgBroadcast",
]

#: Protocol version carried in every frame header.
WIRE_VERSION = 1

#: Default cap on the frame body; a consensus payload is a few hundred
#: bytes, so anything near this is a bug or an attack, not traffic.
DEFAULT_MAX_FRAME = 1 << 20

_LENGTH = struct.Struct("!I")
_HEADER_BYTES = 2  # version + codec id


class WireError(ReproError):
    """A frame violated the wire protocol (version, codec, or framing)."""


class FrameTooLarge(WireError):
    """A frame exceeded the configured size cap (refused on both sides)."""


class TruncatedStream(WireError):
    """The stream ended mid-frame (the peer died while writing)."""


def encode_frame_into(
    obj: Any,
    buf: bytearray,
    codec: int = CODEC_BINARY,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> None:
    """Append one complete wire frame for ``obj`` to ``buf``.

    The buffer-reuse entry point: hot loops (the hub's delivery sweep, the
    node's send path) encode straight into one reusable bytearray (a hub
    link's outbox, the node's send buffer) instead of allocating per-frame
    ``bytes``.  On
    failure the buffer is restored to its original length, so a caller
    coalescing many frames can fall back per-frame.

    ``codec`` has one legal value: ``benchmarks/e2e/layers.py`` passes
    ``CODEC_BINARY`` positionally, so the parameter stays until it stops.

    Raises:
        FrameTooLarge: the encoded body exceeds ``max_frame``.
        WireError: ``codec`` is not ``CODEC_BINARY``.
    """
    if codec != CODEC_BINARY:
        raise WireError(f"unknown codec id {codec}")
    start = len(buf)
    buf += b"\x00\x00\x00\x00"  # length backpatched below
    buf.append(WIRE_VERSION)
    buf.append(CODEC_BINARY)
    try:
        encode_into(obj, buf)
    except Exception:
        del buf[start:]
        raise
    body_len = len(buf) - start - _LENGTH.size
    if body_len > max_frame:
        del buf[start:]
        raise FrameTooLarge(
            f"frame body of {body_len} bytes exceeds the cap of {max_frame}"
        )
    _LENGTH.pack_into(buf, start, body_len)


def encode_frame(obj: Any, *, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Encode one message as a complete wire frame.

    Raises:
        FrameTooLarge: the encoded body exceeds ``max_frame``.
    """
    buf = bytearray()
    encode_frame_into(obj, buf, CODEC_BINARY, max_frame)
    return bytes(buf)


class FrameDecoder:
    """Incremental frame parser for one direction of one link.

    Feed raw socket bytes with :meth:`feed`; complete frames come out
    decoded, in order.  The decoder owns the protocol checks: declared
    length against the cap *before* buffering, version byte, codec byte.

    Args:
        max_frame: size cap on the frame body (must match the writer's).
        lazy: relay mode — binary-codec blob fields decode as
            :class:`repro.codec.Opaque` spans instead of objects, so the
            hub can forward payloads without materializing them.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME, lazy: bool = False) -> None:
        self.max_frame = max_frame
        self.lazy = lazy
        # This link's own binary codec, not the shared one: a materializing
        # codec remembers the payload spans it decoded, and what one link
        # has seen should neither outlive it nor be evicted by another's.
        self._binary = BinaryCodec(lazy)
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[Any]:
        """Absorb ``data`` and yield every frame it completes.

        Raises:
            FrameTooLarge: a declared body length exceeds the cap (raised
                as soon as the length prefix is readable, without waiting
                for — or buffering — the oversized body).
            WireError: version mismatch, unknown codec id, or a payload
                the codec refused (the frame is consumed, so the stream
                stays aligned on the next one).
        """
        buffer = self._buffer
        buffer.extend(data)
        pos = 0
        try:
            while True:
                if len(buffer) - pos < _LENGTH.size:
                    return
                (body_len,) = _LENGTH.unpack_from(buffer, pos)
                if body_len > self.max_frame:
                    raise FrameTooLarge(
                        f"peer declared a {body_len}-byte frame; cap is {self.max_frame}"
                    )
                if body_len < _HEADER_BYTES:
                    raise WireError(f"frame body of {body_len} bytes is too short")
                body = pos + _LENGTH.size
                end = body + body_len
                if len(buffer) < end:
                    return
                version = buffer[body]
                codec = buffer[body + 1]
                pos = end
                if version != WIRE_VERSION:
                    raise WireError(
                        f"wire version mismatch: peer speaks v{version}, "
                        f"this end speaks v{WIRE_VERSION}"
                    )
                if codec != CODEC_BINARY:
                    raise WireError(f"unknown codec id {codec}")
                payload = bytes(buffer[body + _HEADER_BYTES : end])
                try:
                    msg = self._binary.decode(payload)
                except CodecError as exc:
                    msg = None if self.lazy else self._salvage(payload)
                    if msg is None:
                        raise WireError(f"undecodable frame: {exc}") from exc
                yield msg
        finally:
            # Consumed frames leave the buffer once per call, not once per
            # frame (each ``del`` memmoves the rest of a 64 KB read).  In
            # ``finally`` so a caller that stops iterating early (the hub's
            # Hello handshake) still leaves the unread frames buffered.
            del buffer[:pos]

    def _salvage(self, payload: bytes) -> Any:
        """A delivery frame whose framing decodes but a payload span does not
        (a faulty sender's, relayed unread): a bad span stays an :class:`Opaque`
        for the node to drop.  ``None`` for anything else: the link fails."""
        try:
            msg = decode(payload, lazy=True)
        except CodecError:
            return None
        if type(msg) is MsgDeliver:
            return MsgDeliver(msg.sender, self._settle(msg.payload), msg.depth)
        entries = msg.entries if type(msg) is MsgDeliverBatch else None
        if type(entries) is tuple and all(type(e) is tuple and len(e) == 3 for e in entries):
            return MsgDeliverBatch(tuple((s, self._settle(p), d) for s, p, d in entries))
        return None

    def _settle(self, payload: Any) -> Any:
        raw = payload.data if type(payload) is Opaque else encode(payload)
        try:
            return self._binary.decode(raw)
        except CodecError:
            return Opaque(raw)

    def eof(self) -> None:
        """Signal end-of-stream; raises if the peer died mid-frame.

        Raises:
            TruncatedStream: bytes of an incomplete frame were buffered.
        """
        if self._buffer:
            raise TruncatedStream(
                f"stream ended with {len(self._buffer)} bytes of an incomplete frame"
            )


# -- wire message vocabulary ---------------------------------------------------------
#
# The control-plane messages exchanged between the hub and its nodes.
# Frozen + slotted (``slot_init`` where built per frame) like the effects;
# registered so the binary codec struct-packs them.  The ``payload`` of
# ``MsgSend``, ``MsgBroadcast`` and ``MsgDeliver`` is a blob field: the hub
# relays it as an opaque span without decoding (the data-plane fast path).


@wire_record(tag=1)
@dataclass(frozen=True, slots=True)
class Hello:
    """Node → hub: first frame after connecting; identifies the node.

    ``codec`` is a pinned field nobody reads: nodes write ``CODEC_BINARY``
    there, and the golden frames and the registry drift table hold the
    record's shape."""

    pid: ProcessId
    codec: int = 0


@wire_record(tag=2)
@dataclass(frozen=True, slots=True)
class Start:
    """Hub → node: run ``on_start`` and begin processing deliveries."""


@wire_record(tag=3)
@dataclass(frozen=True, slots=True)
class Stop:
    """Hub → node: the run is over; exit cleanly."""


@wire_record(tag=4, blobs=("payload",))
@slot_init
@dataclass(frozen=True, slots=True)
class MsgSend:
    """Node → hub: ship ``payload`` to ``dst`` (src is link-authenticated:
    the hub overrides it with the connection's pid, so a Byzantine node
    cannot forge another sender's identity — same link model as §2.1)."""

    src: ProcessId
    dst: ProcessId
    payload: Any
    depth: int


@wire_record(tag=5, blobs=("payload",))
@slot_init
@dataclass(frozen=True, slots=True)
class MsgDeliver:
    """Hub → node: one message delivery."""

    sender: ProcessId
    payload: Any
    depth: int


@wire_record(tag=6, layouts={"entries": DELIVERY_ENTRIES})
@slot_init
@dataclass(frozen=True, slots=True)
class MsgDeliverBatch:
    """Hub → node: several co-scheduled deliveries in one frame.

    When many queued messages for one destination come due in the same
    delivery sweep (typical for multiplexed workloads: every instance's
    quorum traffic lands together), the hub coalesces them instead of
    paying per-message framing and syscall costs.  Entries are
    ``(sender, payload, depth)`` in delivery order — the node processes
    them exactly as consecutive :class:`MsgDeliver` frames.  Payloads may
    be :class:`repro.codec.Opaque` spans on the hub side; they encode by
    splicing, and the node side materializes each distinct span once (the
    copies of one broadcast share the decoded object — see
    :data:`repro.codec.binary.SPAN_MEMO_ENTRIES`).  That shape is declared
    to the codec (``layouts``), which then writes and reads an entry in one
    flat step instead of walking it as a generic tuple — same bytes.
    """

    entries: tuple[tuple[ProcessId, Any, int], ...]


@wire_record(tag=7)
@slot_init
@dataclass(frozen=True, slots=True)
class MsgDecide:
    """Node → hub: the hosted protocol decided (first decision only)."""

    pid: ProcessId
    value: Any
    kind: Any
    step: int


@wire_record(tag=8)
@slot_init
@dataclass(frozen=True, slots=True)
class MsgOutput:
    """Node → hub: a top-level protocol upcall (e.g. an IDB delivery)."""

    pid: ProcessId
    tag: str
    sender: ProcessId
    value: Any


@wire_record(tag=9)
@slot_init
@dataclass(frozen=True, slots=True)
class MsgService:
    """Node → hub: invoke a trusted service (services live at the hub —
    they model shared abstractions, e.g. the §2.2 oracle consensus, and
    must aggregate calls across processes)."""

    pid: ProcessId
    call: ServiceCall
    depth: int


@wire_record(tag=10)
@slot_init
@dataclass(frozen=True, slots=True)
class MsgLog:
    """Node → hub: a structured trace record."""

    pid: ProcessId
    event: str
    data: dict[str, Any]


@wire_record(tag=13, blobs=("payload",))
@slot_init
@dataclass(frozen=True, slots=True)
class MsgBroadcast:
    """Node → hub: ship ``payload`` to every process, the sender included.

    One frame for what would be ``n`` :class:`MsgSend` frames carrying the
    same bytes: the hub expands it into exactly those sends, in pid order,
    each crossing the fault plan and drawing its own jitter, so message
    counts and per-destination fault budgets are what they were.  ``src``
    is link-authenticated like ``MsgSend.src``."""

    src: ProcessId
    payload: Any
    depth: int


#: Deliveries coalesced into one frame at most — keeps a batched frame far
#: below the frame size cap even with large consensus payloads.
DELIVERY_BATCH_CHUNK = 32


def batch_frames(
    entries: list[tuple[ProcessId, Any, int]],
) -> tuple[list[Any], list[list[tuple[ProcessId, Any, int]]]]:
    """Chunk one destination's due deliveries into delivery frames.

    Returns ``(frames, per_frame)``: the frames to write — a lone delivery
    stays a :class:`MsgDeliver`, larger chunks coalesce into
    :class:`MsgDeliverBatch` capped at :data:`DELIVERY_BATCH_CHUNK` entries
    — and the entries behind each frame, so a caller falling back
    per-frame on :class:`FrameTooLarge` knows what every frame held.
    """
    size = DELIVERY_BATCH_CHUNK
    per_frame = [entries[at : at + size] for at in range(0, len(entries), size)]
    frames = [
        MsgDeliver(*chunk[0]) if len(chunk) == 1 else MsgDeliverBatch(tuple(chunk))
        for chunk in per_frame
    ]
    return frames, per_frame
