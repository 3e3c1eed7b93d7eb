"""The struct-packed binary codec (``CODEC_BINARY``).

A compact, self-describing tagged encoding for the library's high-volume
record shapes.  Every value is one tag byte followed by a tag-specific
body; registered dataclasses (see :mod:`repro.codec.schema`) pack as their
schema tag plus field values in schema order, so a DEX proposal inside two
envelopes costs a handful of varints instead of a pickle of class paths.

Three properties the pickle codec cannot offer:

* **Relay passthrough.**  Schema fields marked as blobs are carried
  length-prefixed; a relay (the hub) decodes the surrounding struct but
  keeps the blob as an :class:`Opaque` byte span and splices it verbatim
  into outgoing frames — the payload crosses the hub without ever being
  decoded or re-encoded.  This, not raw encode speed, is where the data
  plane wins: the hub is the global bottleneck, and with this codec it
  never looks inside a consensus payload.
* **Buffer reuse.**  :meth:`BinaryCodec.encode_into` appends to a caller
  bytearray, so hot loops encode straight into one reusable send buffer
  instead of allocating per-frame ``bytes``.
* **A language-neutral core.**  Varints, UTF-8, IEEE doubles, and a
  published tag table — nothing Python-specific on the main paths.  The
  escape hatch (:data:`TAG_PICKLE`) wraps any unregistered object in a
  pickle blob behind the same interface, so encoding is total; frames that
  use it are by definition not cross-language portable.

Integers use zigzag varints; ``None``/``True``/``False`` and the
:data:`repro.types.BOTTOM` sentinel are single bytes; envelope components
pack via the component table / instance grammar of the schema module.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from ..errors import ReproError
from ..types import BOTTOM, DecisionKind
from . import schema as _schema

__all__ = ["BinaryCodec", "CodecError", "Opaque", "encode", "encode_into", "decode"]


class CodecError(ReproError):
    """A byte stream violated the binary codec (bad tag, truncation)."""


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
TAG_PICKLE = 0x0E  # varint length + pickle bytes (escape hatch)
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
#: and one echo per origin, each echo arriving n times): the hit rate of a
#: 4-shard ``floor_star``/``pipeline_star`` trial stops rising at 64 entries
#: (85 % of 8 250 deliveries, as at 1 024), so 256 leaves room for four
#: times the shards or pipeline depth.
SPAN_MEMO_ENTRIES = 256

#: Spans longer than this decode afresh every time.  Benchmark payloads are
#: 71–78 bytes (4 commands a batch); 4 KiB admits batches fifty times that
#: and bounds one codec's memo at 1 MiB of keys however large payloads get.
SPAN_MEMO_MAX_BYTES = 4096

#: Leaf types no holder can mutate (exact types: subclasses are not trusted).
_ATOM_TYPES = frozenset(
    {int, str, bytes, float, bool, type(None), DecisionKind, type(BOTTOM)}
)


class Opaque:
    """A value carried as its encoded bytes.

    The hub's frame decoder runs in lazy mode: blob-framed fields (e.g.
    ``MsgSend.payload``) surface as ``Opaque`` spans.  Re-encoding splices
    the span verbatim, so relaying costs a memcpy instead of a decode +
    encode round trip — the relay path never calls :meth:`decode`.  The
    span materializes at most once, when someone first asks (an event sink
    reading ``event.payload``, a pickle-codec destination): :meth:`decode`
    memoizes, so every holder of the span shares one decoded object.
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


def _write_varint(n: int, buf: bytearray) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _zigzag(n: int) -> int:
    # non-negative n -> 2n, negative n -> -2n - 1
    return (n << 1) if n >= 0 else (-(n << 1) - 1)


def _encode_value(obj: Any, buf: bytearray) -> None:
    kind = type(obj)
    if kind is int:
        buf.append(TAG_INT)
        _write_varint(_zigzag(obj), buf)
    elif kind is str:
        raw = obj.encode("utf-8")
        buf.append(TAG_STR)
        _write_varint(len(raw), buf)
        buf += raw
    elif kind is _schema_envelope_cls():
        _encode_envelope(obj, buf)
    elif kind is bool:
        buf.append(TAG_TRUE if obj else TAG_FALSE)
    elif obj is None:
        buf.append(TAG_NONE)
    elif kind is tuple:
        buf.append(TAG_TUPLE)
        _write_varint(len(obj), buf)
        for item in obj:
            _encode_value(item, buf)
    elif kind is float:
        buf.append(TAG_FLOAT)
        buf += _FLOAT.pack(obj)
    elif kind is dict:
        buf.append(TAG_DICT)
        _write_varint(len(obj), buf)
        for key, value in obj.items():
            _encode_value(key, buf)
            _encode_value(value, buf)
    elif kind is list:
        buf.append(TAG_LIST)
        _write_varint(len(obj), buf)
        for item in obj:
            _encode_value(item, buf)
    elif kind is bytes:
        buf.append(TAG_BYTES)
        _write_varint(len(obj), buf)
        buf += obj
    elif kind is Opaque:
        buf.append(TAG_BLOB)
        _write_varint(len(obj.data), buf)
        buf += obj.data
    elif kind is DecisionKind:
        buf.append(TAG_KIND)
        _write_varint(_KIND_INDEX[obj], buf)
    elif obj is BOTTOM:
        buf.append(TAG_BOTTOM)
    elif kind is frozenset:
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
    else:
        entry = _schema.entry_for_class(kind)
        if entry is not None:
            _encode_struct(obj, entry, buf)
        else:
            raw = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
            buf.append(TAG_PICKLE)
            _write_varint(len(raw), buf)
            buf += raw


def _encode_struct(obj: Any, entry: _schema.SchemaEntry, buf: bytearray) -> None:
    buf.append(TAG_STRUCT)
    _write_varint(entry.tag, buf)
    blobs = entry.blobs
    if blobs:
        for name in entry.fields:
            value = getattr(obj, name)
            if name in blobs:
                if type(value) is Opaque:
                    buf.append(TAG_BLOB)
                    _write_varint(len(value.data), buf)
                    buf += value.data
                else:
                    inner = bytearray()
                    _encode_value(value, inner)
                    buf.append(TAG_BLOB)
                    _write_varint(len(inner), buf)
                    buf += inner
            else:
                _encode_value(value, buf)
    else:
        for name in entry.fields:
            _encode_value(getattr(obj, name), buf)


_envelope_cls: type | None = None


def _schema_envelope_cls() -> type:
    global _envelope_cls
    if _envelope_cls is None:
        from ..runtime.effects import Envelope

        _envelope_cls = Envelope
    return _envelope_cls


def _encode_envelope(obj: Any, buf: bytearray) -> None:
    buf.append(TAG_ENVELOPE)
    component = obj.component
    index = _schema.component_index(component)
    if index is not None:
        buf.append(_COMPONENT_TABLE_BASE + index)
    else:
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


def encode_into(obj: Any, buf: bytearray) -> None:
    """Append the binary encoding of ``obj`` to ``buf``."""
    _encode_value(obj, buf)


def encode(obj: Any) -> bytes:
    buf = bytearray()
    _encode_value(obj, buf)
    return bytes(buf)


# -- decoding ------------------------------------------------------------------------


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CodecError("truncated varint") from None


def _decode_value(
    data: bytes, pos: int, lazy: bool, memo: dict[bytes, Any] | None
) -> tuple[Any, int]:
    try:
        tag = data[pos]
    except IndexError:
        raise CodecError("truncated value (no tag byte)") from None
    pos += 1
    if tag == TAG_INT:
        zig, pos = _read_varint(data, pos)
        return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1), pos
    if tag == TAG_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated string")
        return data[pos:end].decode("utf-8"), end
    if tag == TAG_STRUCT:
        return _decode_struct(data, pos, lazy, memo)
    if tag == TAG_ENVELOPE:
        return _decode_envelope(data, pos, lazy, memo)
    if tag == TAG_TUPLE:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, lazy, memo)
            items.append(item)
        return tuple(items), pos
    if tag == TAG_BLOB:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated blob")
        if lazy:
            return Opaque(bytes(data[pos:end])), end
        memoable = memo is not None and length <= SPAN_MEMO_MAX_BYTES
        if memoable:
            span = bytes(data[pos:end])
            try:
                return memo[span], end
            except KeyError:
                pass
        inner, inner_end = _decode_value(data, pos, lazy, memo)
        if inner_end != end:
            raise CodecError("blob length does not match its contents")
        if memoable and _shareable(inner):
            if len(memo) >= SPAN_MEMO_ENTRIES:
                del memo[next(iter(memo))]  # oldest first: dicts keep insertion order
            memo[span] = inner
        return inner, end
    if tag == TAG_NONE:
        return None, pos
    if tag == TAG_TRUE:
        return True, pos
    if tag == TAG_FALSE:
        return False, pos
    if tag == TAG_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], end
    if tag == TAG_BYTES:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[pos:end]), end
    if tag == TAG_LIST:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, lazy, memo)
            items.append(item)
        return items, pos
    if tag == TAG_DICT:
        count, pos = _read_varint(data, pos)
        out = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos, lazy, memo)
            value, pos = _decode_value(data, pos, lazy, memo)
            out[key] = value
        return out, pos
    if tag == TAG_KIND:
        index, pos = _read_varint(data, pos)
        if index >= len(_KIND_MEMBERS):
            raise CodecError(f"unknown DecisionKind index {index}")
        return _KIND_MEMBERS[index], pos
    if tag == TAG_PICKLE:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated pickle escape")
        return pickle.loads(data[pos:end]), end
    if tag == TAG_BOTTOM:
        return BOTTOM, pos
    if tag == TAG_FROZENSET:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, lazy, memo)
            items.append(item)
        return frozenset(items), pos
    raise CodecError(f"unknown binary tag 0x{tag:02x}")


def _decode_struct(
    data: bytes, pos: int, lazy: bool, memo: dict[bytes, Any] | None
) -> tuple[Any, int]:
    tag, pos = _read_varint(data, pos)
    entry = _schema.entry_for_tag(tag)
    if entry is None:
        _schema.ensure_registered()
        entry = _schema.entry_for_tag(tag)
        if entry is None:
            raise CodecError(f"unknown schema tag {tag}")
    values = []
    for _ in entry.fields:
        value, pos = _decode_value(data, pos, lazy, memo)
        values.append(value)
    return entry.cls(*values), pos


def _decode_envelope(
    data: bytes, pos: int, lazy: bool, memo: dict[bytes, Any] | None
) -> tuple[Any, int]:
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
    payload, pos = _decode_value(data, pos, lazy, memo)
    return _schema_envelope_cls()(component, payload), pos


def _shareable(value: Any) -> bool:
    """Whether two deliveries may hold the *same* decoded object: nothing
    mutable anywhere inside it.  Exact types only — a ``list``, a ``dict``
    and whatever came out of a :data:`TAG_PICKLE` escape all answer no."""
    kind = type(value)
    if kind in _ATOM_TYPES:
        return True
    if kind is tuple or kind is frozenset:
        return all(map(_shareable, value))
    if kind is _schema_envelope_cls():
        return _shareable(value.payload)
    entry = _schema.entry_for_class(kind)  # registered records are frozen
    return entry is not None and all(
        _shareable(getattr(value, name)) for name in entry.fields
    )


def _decode(data: bytes, lazy: bool, memo: dict[bytes, Any] | None) -> Any:
    value, end = _decode_value(data, 0, lazy, memo)
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after value")
    return value


def decode(data: bytes, lazy: bool = False) -> Any:
    """Decode one value; trailing bytes are a :class:`CodecError`.

    With ``lazy=True``, blob-framed spans come back as :class:`Opaque`
    instead of being materialized (the hub's relay mode).
    """
    return _decode(data, lazy, None)


class BinaryCodec:
    """The struct-packed codec behind the shared codec interface.

    A materializing instance remembers the blob spans it has decoded (see
    :data:`SPAN_MEMO_ENTRIES`): a node receives the byte-identical payload
    of one broadcast once per echoer, and pays one decode for all of them.

    Args:
        lazy: decode blob fields as :class:`Opaque` spans (relay mode).
    """

    id = 3
    name = "binary"

    def __init__(self, lazy: bool = False) -> None:
        self._lazy = lazy
        self._spans: dict[bytes, Any] | None = None if lazy else {}

    def encode_into(self, obj: Any, buf: bytearray) -> None:
        _encode_value(obj, buf)

    def encode(self, obj: Any) -> bytes:
        buf = bytearray()
        _encode_value(obj, buf)
        return bytes(buf)

    def decode(self, data: bytes) -> Any:
        return _decode(data, self._lazy, self._spans)
