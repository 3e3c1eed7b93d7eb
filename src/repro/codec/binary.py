"""The struct-packed binary codec (``CODEC_BINARY``).

A compact, self-describing tagged encoding for the library's high-volume
record shapes.  Every value is one tag byte followed by a tag-specific
body; registered dataclasses (see :mod:`repro.codec.schema`) pack as their
schema tag plus field values in schema order, so a DEX proposal inside two
envelopes costs a handful of varints instead of a pickle of class paths.

Three properties a pickle of the same records cannot offer:

* **Relay passthrough.**  Schema fields marked as blobs are carried
  length-prefixed; a relay (the hub) decodes the surrounding struct but
  keeps the blob as an :class:`Opaque` byte span and splices it verbatim
  into outgoing frames — the payload crosses the hub without ever being
  decoded or re-encoded.  This, not raw encode speed, is where the data
  plane wins: the hub is the global bottleneck, and with this codec it
  never looks inside a consensus payload.  The same framing serves the
  receiving end: a length-prefixed span is what a materializing decoder
  memoises, so a value that many messages quote under different headers
  (``DexProposal``/``IdbInit``/``IdbEcho`` all blob-frame their ``value``)
  is decoded once per replica, not once per message.
* **Buffer reuse.**  :meth:`BinaryCodec.encode_into` appends to a caller
  bytearray, so hot loops encode straight into one reusable send buffer
  instead of allocating per-frame ``bytes``.
* **A language-neutral core.**  Varints, UTF-8, IEEE doubles, and a
  published tag table — nothing Python-specific anywhere.  A class that
  crosses a socket or a disk registers with ``@wire_record``; encoding
  anything else is a :class:`CodecError` at the sender, and no byte a peer
  sends can make a decoder run code.

Integers use zigzag varints; ``None``/``True``/``False`` and the
:data:`repro.types.BOTTOM` sentinel are single bytes; envelope components
pack via the component table / instance grammar of the schema module.

How it runs.  Nothing here interprets a value by walking a chain of ``if``s:
encoding dispatches on ``type(obj)`` through one dict, decoding on the tag
byte through one tuple, and every registered record gets its own encoder and
decoder, *compiled* from its schema entry the first time the record is met
(never at import): header bytes precomputed, all fields fetched by one
``operator.attrgetter``, blob framing and declared field layouts
(:data:`DELIVERY_ENTRIES`) fixed per field.  The item loops
(:func:`_encode_items`, :func:`_decode_items`) settle the values that open
with a one-byte varint — small integers, short strings and tuples, short
blob spans in relay mode or already memoised — inline; everything else goes
through the tables, so the answer is always the tables' answer.  The
interpreter this replaced lives on as ``tests/codec_reference.py``, the
specification the compiled codec is property-tested against, byte for byte.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from itertools import chain
from operator import attrgetter
from typing import Any, Callable

from ..errors import ReproError
from ..types import BOTTOM, DecisionKind
from . import schema as _schema

__all__ = [
    "BinaryCodec",
    "CodecError",
    "Opaque",
    "DELIVERY_ENTRIES",
    "encode",
    "encode_into",
    "decode",
]


class CodecError(ReproError):
    """A byte stream violated the binary codec (bad tag, truncation), or a
    value has no encoding (its class is not a registered record)."""


# -- value tags ----------------------------------------------------------------------
# APPEND ONLY: these constants are the wire format, pinned by the golden
# frames fixture.

TAG_NONE = 0x00
TAG_TRUE = 0x01
TAG_FALSE = 0x02
TAG_INT = 0x03  # zigzag varint
TAG_FLOAT = 0x04  # 8 bytes, IEEE 754 big-endian
TAG_STR = 0x05  # varint byte length + UTF-8
TAG_BYTES = 0x06  # varint length + raw bytes
TAG_TUPLE = 0x07  # varint count + values
TAG_LIST = 0x08  # varint count + values
TAG_DICT = 0x09  # varint count + alternating key/value
TAG_STRUCT = 0x0A  # varint schema tag + fields in schema order
TAG_ENVELOPE = 0x0B  # component (see below) + payload value
TAG_KIND = 0x0C  # varint index into DecisionKind member order
TAG_BLOB = 0x0D  # varint length + encoded inner value
# 0x0E is reserved, never reassigned: it was a pickle escape, and reads as
# an unknown tag.
TAG_BOTTOM = 0x0F
TAG_FROZENSET = 0x10  # varint count + values in encoded-bytes order

# Envelope component kinds (first byte after TAG_ENVELOPE):
_COMPONENT_STR = 0x00  # varint length + UTF-8
_COMPONENT_INSTANCE = 0x01  # varint shard + varint slot
_COMPONENT_TABLE_BASE = 0x02  # 0x02 + k: COMPONENT_TABLE[k]

_FLOAT = struct.Struct("!d")

_KIND_MEMBERS = tuple(DecisionKind)
_KIND_INDEX = {member: i for i, member in enumerate(_KIND_MEMBERS)}

#: Decoded blob spans one materializing :class:`BinaryCodec` remembers, keyed
#: by their raw bytes, oldest evicted first.  A replica's live set is the
#: distinct payloads of its open slots (≤ 21 each at n=7: proposals, inits
#: and one echo per origin, each echo arriving n times) plus the blob-framed
#: values inside them (one span per distinct batch, one or two a slot): the
#: hit rate of a 4-shard ``floor_star``/``pipeline_star`` trial stops rising
#: at 128 entries (85 % of 11 680 lookups, as at 1 024; 84 % at 64), so 256
#: leaves room for twice the shards or pipeline depth.
SPAN_MEMO_ENTRIES = 256

#: Spans longer than this decode afresh every time.  Benchmark payloads are
#: 71–78 bytes (4 commands a batch); 4 KiB admits batches fifty times that
#: and bounds one codec's memo at 1 MiB of keys however large payloads get.
SPAN_MEMO_MAX_BYTES = 4096

#: Every memo's other direction, process-wide (encoders have no codec): the span
#: each memoised, hence immutable, value decoded from, by identity (the entry
#: holds the value, so its id stays its own; ``popitem`` is one atomic step).
#: A replica echoes a decoded batch seven times a slot: the echoes splice it.
_SPAN_OF: OrderedDict[int, tuple[Any, bytes]] = OrderedDict()

class Opaque:
    """A value carried as its encoded bytes.

    The hub's frame decoder runs in lazy mode: blob-framed fields (e.g.
    ``MsgSend.payload``) surface as ``Opaque`` spans.  Re-encoding splices
    the span verbatim, so relaying costs a memcpy instead of a decode +
    encode round trip — the relay path never calls :meth:`decode`.  The
    span materializes at most once, when someone first asks (an event sink
    reading ``event.payload``): :meth:`decode` memoizes, so every holder of
    the span shares one decoded object.
    """

    __slots__ = ("data", "_value")

    def __init__(self, data: bytes) -> None:
        self.data = data  # ``_value`` stays unset until the first decode

    def decode(self) -> Any:
        try:
            return self._value
        except AttributeError:
            value = self._value = decode(self.data)
            return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Opaque) and other.data == self.data

    def __hash__(self) -> int:
        return hash((Opaque, self.data))

    def __repr__(self) -> str:
        return f"Opaque({len(self.data)} bytes)"


# -- encoding ------------------------------------------------------------------------

Encoder = Callable[[Any, bytearray], None]


def _write_varint(n: int, buf: bytearray) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _zigzag(n: int) -> int:
    # non-negative n -> 2n, negative n -> -2n - 1
    return (n << 1) if n >= 0 else (-(n << 1) - 1)


#: ``TAG_INT`` + the one-byte zigzag varint of ``n``, at index ``n + 64``:
#: the integers -64..63, which is every pid, shard and small depth.
_SMALL_INTS = tuple(bytes((TAG_INT, _zigzag(n))) for n in range(-64, 64))


def _encode_value(obj: Any, buf: bytearray) -> None:
    kind = type(obj)
    try:
        encoder = _ENCODERS[kind]
    except KeyError:
        encoder = _encoder_for(kind)
    encoder(obj, buf)


def _encode_items(items: Any, buf: bytearray) -> None:
    """Encode consecutive values — the loop under every sequence and under
    every record's fields.  One-byte integers, short strings and short
    tuples are written here; any other value goes to its type's encoder."""
    encoders, small = _ENCODERS, _SMALL_INTS
    for item in items:
        kind = type(item)
        if kind is int:
            if -64 <= item < 64:
                buf += small[item + 64]
                continue
            if 64 <= item < 8192:  # a two-byte zigzag varint
                buf.append(TAG_INT)
                buf.append(((item << 1) & 0x7F) | 0x80)
                buf.append(item >> 6)
                continue
        elif kind is str:
            raw = item.encode()
            if len(raw) < 0x80:
                buf.append(TAG_STR)
                buf.append(len(raw))
                buf += raw
                continue
        elif kind is tuple and len(item) < 0x80:
            buf.append(TAG_TUPLE)
            buf.append(len(item))
            _encode_items(item, buf)
            continue
        try:
            encoder = encoders[kind]
        except KeyError:
            encoder = _encoder_for(kind)
        encoder(item, buf)


def _encode_int(obj: int, buf: bytearray) -> None:
    if -64 <= obj < 64:
        buf += _SMALL_INTS[obj + 64]
    elif 64 <= obj < 8192:  # a two-byte zigzag varint
        buf.append(TAG_INT)
        buf.append(((obj << 1) & 0x7F) | 0x80)
        buf.append(obj >> 6)
    else:
        buf.append(TAG_INT)
        _write_varint(_zigzag(obj), buf)


def _encode_str(obj: str, buf: bytearray) -> None:
    raw = obj.encode()
    buf.append(TAG_STR)
    _write_varint(len(raw), buf)
    buf += raw


def _encode_bool(obj: bool, buf: bytearray) -> None:
    buf.append(TAG_TRUE if obj else TAG_FALSE)


def _encode_none(obj: None, buf: bytearray) -> None:
    buf.append(TAG_NONE)


def _encode_tuple(obj: tuple, buf: bytearray) -> None:
    buf.append(TAG_TUPLE)
    _write_varint(len(obj), buf)
    _encode_items(obj, buf)


def _encode_float(obj: float, buf: bytearray) -> None:
    buf.append(TAG_FLOAT)
    buf += _FLOAT.pack(obj)


def _encode_dict(obj: dict, buf: bytearray) -> None:
    buf.append(TAG_DICT)
    _write_varint(len(obj), buf)
    _encode_items(chain.from_iterable(obj.items()), buf)


def _encode_list(obj: list, buf: bytearray) -> None:
    buf.append(TAG_LIST)
    _write_varint(len(obj), buf)
    _encode_items(obj, buf)


def _encode_bytes(obj: bytes, buf: bytearray) -> None:
    buf.append(TAG_BYTES)
    _write_varint(len(obj), buf)
    buf += obj


def _encode_opaque(obj: Opaque, buf: bytearray) -> None:
    buf.append(TAG_BLOB)
    _write_varint(len(obj.data), buf)
    buf += obj.data


def _encode_kind(obj: DecisionKind, buf: bytearray) -> None:
    buf.append(TAG_KIND)
    _write_varint(_KIND_INDEX[obj], buf)


def _encode_bottom(obj: Any, buf: bytearray) -> None:
    if obj is not BOTTOM:  # a second instance of the sentinel's class
        raise _unregistered(type(obj))
    buf.append(TAG_BOTTOM)


def _encode_frozenset(obj: frozenset, buf: bytearray) -> None:
    # Deterministic order: sort by encoded bytes, so equal sets encode
    # equal frames regardless of build order.
    buf.append(TAG_FROZENSET)
    _write_varint(len(obj), buf)
    encoded = []
    for item in obj:
        item_buf = bytearray()
        _encode_value(item, item_buf)
        encoded.append(bytes(item_buf))
    for raw in sorted(encoded):
        buf += raw


def _encode_blob_field(value: Any, buf: bytearray) -> None:
    """A record field marked as a blob: length-prefixed, a span spliced."""
    if type(value) is Opaque:
        inner = value.data
    elif (known := _SPAN_OF.get(id(value))) is not None and known[0] is value:
        inner = known[1]
    else:
        inner = bytearray()
        _encode_value(value, inner)
    buf.append(TAG_BLOB)
    _write_varint(len(inner), buf)
    buf += inner


_envelope_cls: type | None = None


def _schema_envelope_cls() -> type:
    global _envelope_cls
    if _envelope_cls is None:
        from ..runtime.effects import Envelope

        _envelope_cls = Envelope
    return _envelope_cls


#: ``TAG_ENVELOPE`` + the one-byte encoding of each interned component.
_TABLE_HEADERS = {
    name: bytes((TAG_ENVELOPE, _COMPONENT_TABLE_BASE + index))
    for index, name in enumerate(_schema.COMPONENT_TABLE)
}


def _encode_envelope(obj: Any, buf: bytearray) -> None:
    component = obj.component
    header = _TABLE_HEADERS.get(component)
    if header is not None:
        buf += header
    else:
        buf.append(TAG_ENVELOPE)
        instance = _schema.parse_instance(component)
        if instance is not None:
            buf.append(_COMPONENT_INSTANCE)
            _write_varint(instance[0], buf)
            _write_varint(instance[1], buf)
        else:
            raw = component.encode("utf-8")
            buf.append(_COMPONENT_STR)
            _write_varint(len(raw), buf)
            buf += raw
    _encode_value(obj.payload, buf)


#: ``type(obj)`` → encoder.  Exact types: a subclass of ``int`` is not an
#: ``int`` here.  Registered records and ``Envelope`` join on first sight
#: (:func:`_encoder_for`).
_ENCODERS: dict[type, Encoder] = {
    int: _encode_int,
    str: _encode_str,
    bool: _encode_bool,
    type(None): _encode_none,
    tuple: _encode_tuple,
    float: _encode_float,
    dict: _encode_dict,
    list: _encode_list,
    bytes: _encode_bytes,
    Opaque: _encode_opaque,
    DecisionKind: _encode_kind,
    type(BOTTOM): _encode_bottom,
    frozenset: _encode_frozenset,
}


def _unregistered(kind: type) -> CodecError:
    return CodecError(
        f"cannot encode {kind.__module__}.{kind.__qualname__}: "
        "not a registered record (@wire_record)"
    )


def _encoder_for(kind: type) -> Encoder:
    """The encoder of a type :data:`_ENCODERS` has not met: a registered
    record's is compiled and kept, so is ``Envelope``'s.  Anything else is
    a :class:`CodecError`, and nothing is kept for it, so a class that
    registers later encodes from then on."""
    if kind is _schema_envelope_cls():
        encoder = _encode_envelope
    else:
        entry = _schema.entry_for_class(kind)
        if entry is None:
            raise _unregistered(kind)
        encoder = _compile_encoder(entry)
    _ENCODERS[kind] = encoder
    return encoder


def _compile_encoder(entry: _schema.SchemaEntry) -> Encoder:
    """Build one record's encoder: the header is two constant bytes, one
    ``attrgetter`` fetches every field, and which fields are blob-framed or
    carry a declared layout was decided here, not per message."""
    head = bytearray((TAG_STRUCT,))
    _write_varint(entry.tag, head)
    header = bytes(head)
    fields = entry.fields
    if not fields:

        def encode_record(obj: Any, buf: bytearray) -> None:
            buf += header

        return encode_record
    fetch = attrgetter(*fields)
    declared = tuple(
        entry.layouts[name][0]
        if name in entry.layouts
        else _encode_blob_field if name in entry.blobs else None
        for name in fields
    )
    if len(fields) == 1:
        encode_field = declared[0] or _encode_value

        def encode_record(obj: Any, buf: bytearray) -> None:
            buf += header
            encode_field(fetch(obj), buf)

    elif not any(declared):

        def encode_record(obj: Any, buf: bytearray) -> None:
            buf += header
            _encode_items(fetch(obj), buf)

    else:
        encoders = tuple(encoder or _encode_value for encoder in declared)

        def encode_record(obj: Any, buf: bytearray) -> None:
            buf += header
            for encode_field, value in zip(encoders, fetch(obj)):
                encode_field(value, buf)

    return encode_record


def encode_into(obj: Any, buf: bytearray) -> None:
    """Append the binary encoding of ``obj`` to ``buf``."""
    _encode_value(obj, buf)


def encode(obj: Any) -> bytes:
    buf = bytearray()
    _encode_value(obj, buf)
    return bytes(buf)


# -- decoding ------------------------------------------------------------------------
#
# Every decoder takes ``(data, pos, codec)`` and returns ``(value, next pos)``;
# ``codec`` is the :class:`BinaryCodec` the decode runs for — its mode, its
# span memo, and the shareability flag of the blob span being decoded.  A tag
# decoder starts after its tag byte; a field decoder (:func:`_decode_value`,
# a declared layout) starts on it.


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    try:
        if data[pos] < 0x80:  # one byte: every tag, pid, shard and early slot
            return data[pos], pos + 1
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CodecError("truncated varint") from None


#: The integer behind each one-byte zigzag varint.
_SMALL_UNZIGZAG = tuple(
    (zig >> 1) if not zig & 1 else -((zig + 1) >> 1) for zig in range(0x80)
)


def _decode_value(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    try:
        decoder = _DECODERS[data[pos]]
    except IndexError:
        raise CodecError("truncated value (no tag byte)") from None
    return decoder(data, pos + 1, codec)


def _decode_items(
    data: bytes, pos: int, count: int, codec: "BinaryCodec"
) -> tuple[list, int]:
    """Decode ``count`` consecutive values — the loop under every sequence
    and under every record's fields.  Values that open with a one-byte
    varint — a small integer, a short string, a short tuple, a short blob
    span in relay mode or one the codec has already decoded — are settled
    here; any other value, and any truncation, goes to its tag's decoder."""
    items: list = []
    append = items.append
    lazy, memo, size = codec._lazy, codec._spans, len(data)
    decoders, unzigzag = _DECODERS, _SMALL_UNZIGZAG
    for _ in range(count):
        try:
            tag = data[pos]
            head = data[pos + 1]
        except IndexError:
            value, pos = _decode_value(data, pos, codec)  # a last byte, or cut short
            append(value)
            continue
        if head < 0x80:
            if tag == TAG_INT:
                append(unzigzag[head])
                pos += 2
                continue
            if tag == TAG_TUPLE:
                value, pos = _decode_items(data, pos + 2, head, codec)
                append(tuple(value))
                continue
            end = pos + 2 + head
            if end <= size:
                if tag == TAG_STR:
                    append(data[pos + 2 : end].decode())
                    pos = end
                    continue
                if tag == TAG_BLOB and (lazy or memo is not None):
                    span = data[pos + 2 : end]
                    hit = Opaque(span) if lazy else memo.get(span)
                    if hit is not None:
                        append(hit)
                        pos = end
                        continue
        value, pos = decoders[tag](data, pos + 1, codec)
        append(value)
    return items, pos


def _decode_none(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    return None, pos


def _decode_true(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    return True, pos


def _decode_false(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    return False, pos


def _decode_int(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    zig, pos = _read_varint(data, pos)
    return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1), pos


def _decode_float(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    end = pos + 8
    if end > len(data):
        raise CodecError("truncated float")
    return _FLOAT.unpack_from(data, pos)[0], end


def _decode_str(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    return data[pos:end].decode("utf-8"), end


def _decode_bytes(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated bytes")
    return data[pos:end], end


def _decode_tuple(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    count, pos = _read_varint(data, pos)
    items, pos = _decode_items(data, pos, count, codec)
    return tuple(items), pos


def _decode_list(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    codec._mutable = True
    count, pos = _read_varint(data, pos)
    return _decode_items(data, pos, count, codec)


def _decode_dict(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    codec._mutable = True
    count, pos = _read_varint(data, pos)
    out = {}
    for _ in range(count):
        key, pos = _decode_value(data, pos, codec)
        value, pos = _decode_value(data, pos, codec)
        out[key] = value
    return out, pos


def _decode_struct(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    tag, pos = _read_varint(data, pos)
    try:
        decoder = _RECORD_DECODERS[tag]
    except KeyError:
        decoder = _compile_decoder(tag)
    return decoder(data, pos, codec)


def _decode_envelope(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    try:
        kind = data[pos]
    except IndexError:
        raise CodecError("truncated envelope component") from None
    pos += 1
    if kind >= _COMPONENT_TABLE_BASE:
        index = kind - _COMPONENT_TABLE_BASE
        table = _schema.COMPONENT_TABLE
        if index >= len(table):
            raise CodecError(f"unknown component table index {index}")
        component = table[index]
    elif kind == _COMPONENT_INSTANCE:
        shard, pos = _read_varint(data, pos)
        slot, pos = _read_varint(data, pos)
        component = _schema.instance_name(shard, slot)
    else:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated envelope component")
        component = data[pos:end].decode("utf-8")
        pos = end
    payload, pos = _decode_value(data, pos, codec)
    return (_envelope_cls or _schema_envelope_cls())(component, payload), pos


def _decode_kind(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    index, pos = _read_varint(data, pos)
    if index >= len(_KIND_MEMBERS):
        raise CodecError(f"unknown DecisionKind index {index}")
    return _KIND_MEMBERS[index], pos


def _decode_blob(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated blob")
    if codec._lazy:
        return Opaque(data[pos:end]), end
    return _materialize(data, pos, end, codec), end


def _materialize(data: bytes, pos: int, end: int, codec: "BinaryCodec") -> Any:
    """The value of the blob span ``data[pos:end]``: the codec's memo of it,
    or a decode — which the memo keeps if nothing mutable turned up inside.

    Shareability is decided while decoding: the decoders of a ``list`` and
    a ``dict`` raise ``codec._mutable``, and each span
    starts with the flag down, so after its decode the flag says whether
    *this* span may be shared.  A clean span puts the enclosing span's flag
    back; a tainted one leaves it up, tainting every span around it."""
    memo = codec._spans
    if memo is None or end - pos > SPAN_MEMO_MAX_BYTES:
        inner, inner_end = _decode_value(data, pos, codec)
        if inner_end != end:
            raise CodecError("blob length does not match its contents")
        return inner
    span = data[pos:end]
    try:
        return memo[span]
    except KeyError:
        pass
    enclosing = codec._mutable
    codec._mutable = False
    inner, inner_end = _decode_value(data, pos, codec)
    if inner_end != end:
        raise CodecError("blob length does not match its contents")
    if not codec._mutable:
        if len(memo) >= SPAN_MEMO_ENTRIES:
            del memo[next(iter(memo))]  # oldest first: dicts keep insertion order
        if len(_SPAN_OF) >= SPAN_MEMO_ENTRIES:
            _SPAN_OF.popitem(last=False)
        memo[span], _SPAN_OF[id(inner)] = inner, (inner, span)
        codec._mutable = enclosing
    return inner


def _decode_bottom(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    return BOTTOM, pos


def _decode_frozenset(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    count, pos = _read_varint(data, pos)
    items, pos = _decode_items(data, pos, count, codec)
    return frozenset(items), pos


def _decode_unknown(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    raise CodecError(f"unknown binary tag 0x{data[pos - 1]:02x}")


Decoder = Callable[[bytes, int, "BinaryCodec"], "tuple[Any, int]"]

#: tag byte → decoder, every byte answered (0x0E, reserved, as unknown).
_DECODERS: tuple[Decoder, ...] = (
    _decode_none,
    _decode_true,
    _decode_false,
    _decode_int,
    _decode_float,
    _decode_str,
    _decode_bytes,
    _decode_tuple,
    _decode_list,
    _decode_dict,
    _decode_struct,
    _decode_envelope,
    _decode_kind,
    _decode_blob,
    _decode_unknown,
    _decode_bottom,
    _decode_frozenset,
) + (_decode_unknown,) * (256 - 17)

#: schema tag → the record's compiled decoder, built on first sight.
_RECORD_DECODERS: dict[int, Decoder] = {}


def _compile_decoder(tag: int) -> Decoder:
    """Build one record's decoder (its fields are decoded by one item loop,
    or by their declared layouts) and keep it under its schema tag."""
    entry = _schema.entry_for_tag(tag)
    if entry is None:
        _schema.ensure_registered()
        entry = _schema.entry_for_tag(tag)
        if entry is None:
            raise CodecError(f"unknown schema tag {tag}")
    cls, count = entry.cls, len(entry.fields)
    declared = tuple(
        entry.layouts[name][1] if name in entry.layouts else None
        for name in entry.fields
    )
    if not any(declared):

        def decode_record(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
            values, pos = _decode_items(data, pos, count, codec)
            return cls(*values), pos

    else:
        decoders = tuple(decoder or _decode_value for decoder in declared)

        def decode_record(data: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
            values = []
            for decode_field in decoders:
                value, pos = decode_field(data, pos, codec)
                values.append(value)
            return cls(*values), pos

    _RECORD_DECODERS[tag] = decode_record
    return decode_record


# -- declared field layouts ------------------------------------------------------------
#
# A record may declare, at its ``@wire_record``, that one of its fields has
# a known shape: ``layouts={"field": (encoder, field decoder)}``.  The pair
# must write and read exactly the generic encoding — it is a faster way to
# the same bytes and the same object, never a second format — so each entry
# that is not of the declared shape takes the generic path on the spot.

#: ``TAG_TUPLE 3 TAG_INT <sender> TAG_BLOB``: how a delivery entry starts,
#: at index ``sender + 64``.
_ENTRY_HEADS = tuple(
    bytes((TAG_TUPLE, 3, TAG_INT, _zigzag(sender), TAG_BLOB)) for sender in range(-64, 64)
)


def _encode_delivery_entries(entries: Any, buf: bytearray) -> None:
    """``MsgDeliverBatch.entries`` on the hub: ``(sender, span, depth)`` with
    a one-byte sender and a span under 128 bytes is written flat — constant
    head, length byte, splice, a depth of one or two bytes — and any other
    entry by the generic encoder."""
    if type(entries) is not tuple:
        _encode_value(entries, buf)
        return
    buf.append(TAG_TUPLE)
    _write_varint(len(entries), buf)
    heads, small = _ENTRY_HEADS, _SMALL_INTS
    for entry in entries:
        if type(entry) is tuple and len(entry) == 3:
            sender, payload, depth = entry
            if (
                type(payload) is Opaque
                and type(sender) is int
                and type(depth) is int
                and -64 <= sender < 64
                and len(payload.data) < 0x80
            ):
                span = payload.data
                buf += heads[sender + 64]
                buf.append(len(span))
                buf += span
                if 0 <= depth < 64:
                    buf += small[depth + 64]
                elif 64 <= depth < 8192:  # a two-byte zigzag varint
                    buf.append(TAG_INT)
                    buf.append(((depth << 1) & 0x7F) | 0x80)
                    buf.append(depth >> 6)
                else:
                    _encode_int(depth, buf)
                continue
        _encode_value(entry, buf)


def _decode_delivery_entries(
    data: bytes, pos: int, codec: "BinaryCodec"
) -> tuple[Any, int]:
    """``MsgDeliverBatch.entries`` on a replica: the mirror of
    :func:`_encode_delivery_entries`.  An entry whose bytes are not of the
    flat shape — or are cut short — is decoded by the generic decoder from
    its first byte, so the result (and the error) is always the generic
    one."""
    try:
        count = data[pos + 1]
        if data[pos] != TAG_TUPLE or count >= 0x80:
            return _decode_value(data, pos, codec)
    except IndexError:
        return _decode_value(data, pos, codec)  # names the truncation
    pos += 2
    entries: list = []
    append = entries.append
    lazy, memo, unzigzag = codec._lazy, codec._spans, _SMALL_UNZIGZAG
    for _ in range(count):
        try:
            if (
                data[pos] == TAG_TUPLE
                and data[pos + 1] == 3
                and data[pos + 2] == TAG_INT
                and data[pos + 4] == TAG_BLOB
            ):
                sender, length = data[pos + 3], data[pos + 5]
                start = pos + 6
                end = start + length
                if sender < 0x80 and length < 0x80 and data[end] == TAG_INT:
                    zig, after = data[end + 1], end + 2
                    if zig >= 0x80:  # a two-byte depth; a longer one is not flat
                        high = data[end + 2]
                        zig = (zig & 0x7F) | (high << 7)
                        after = end + 3 if high < 0x80 else 0
                    if after:
                        if lazy:
                            payload = Opaque(data[start:end])
                        else:
                            payload = None if memo is None else memo.get(data[start:end])
                            if payload is None:
                                payload = _materialize(data, start, end, codec)
                        depth = (zig >> 1) if not zig & 1 else -((zig + 1) >> 1)
                        append((unzigzag[sender], payload, depth))
                        pos = after
                        continue
        except IndexError:
            pass
        entry, pos = _decode_value(data, pos, codec)
        append(entry)
    return tuple(entries), pos


#: The declared layout of ``MsgDeliverBatch.entries`` (see
#: :mod:`repro.net.wire`): a tuple of ``(sender, blob payload, depth)``.
DELIVERY_ENTRIES = (_encode_delivery_entries, _decode_delivery_entries)


# -- the codec -------------------------------------------------------------------------


def decode(data: bytes, lazy: bool = False) -> Any:
    """Decode one value; trailing bytes are a :class:`CodecError`.

    With ``lazy=True``, blob-framed spans come back as :class:`Opaque`
    instead of being materialized (the hub's relay mode).
    """
    return (_RELAY if lazy else _FRESH).decode(data)


class BinaryCodec:
    """The struct-packed codec, as an object with its own span memo.

    A materializing instance remembers the blob spans it has decoded (see
    :data:`SPAN_MEMO_ENTRIES`): a node receives the byte-identical payload
    of one broadcast once per echoer, and pays one decode for all of them.
    Whether a span may be shared is noted while it decodes, in a flag on the
    instance (:func:`_materialize`) — so one instance decodes on one thread
    at a time; a :class:`~repro.net.wire.FrameDecoder` owns its own.

    Args:
        lazy: decode blob fields as :class:`Opaque` spans (relay mode).
    """

    __slots__ = ("_lazy", "_spans", "_mutable")

    def __init__(self, lazy: bool = False) -> None:
        self._lazy = lazy
        self._spans: dict[bytes, Any] | None = None if lazy else {}
        self._mutable = False

    def encode_into(self, obj: Any, buf: bytearray) -> None:
        _encode_value(obj, buf)

    def encode(self, obj: Any) -> bytes:
        buf = bytearray()
        _encode_value(obj, buf)
        return bytes(buf)

    def decode(self, data: bytes) -> Any:
        """Decode one value from ``bytes`` — or a ``bytearray`` or
        ``memoryview`` (WAL and snapshot readers pass slices), copied once
        here: spans are memoised under, and ``Opaque`` holds, ``bytes``.
        Whatever is wrong with a malformed input — bad UTF-8, an unhashable
        set member, a record built from the wrong fields, nesting too deep
        — it is a :class:`CodecError`."""
        if type(data) is not bytes:
            data = bytes(data)
        try:
            value, end = _decode_value(data, 0, self)
        except (ValueError, TypeError, RecursionError) as exc:
            raise CodecError(f"malformed value: {type(exc).__name__}: {exc}") from exc
        if end != len(data):
            raise CodecError(f"{len(data) - end} trailing bytes after value")
        return value


def _without_memo(lazy: bool) -> BinaryCodec:
    codec = BinaryCodec(lazy)
    codec._spans = None
    return codec


#: What the module-level :func:`decode` runs on: no memo, so no state that a
#: second thread or a nested call could disturb.
_FRESH, _RELAY = _without_memo(False), _without_memo(True)
