"""The binary codec as an interpreter — the tests' reference.

This is the codec as it stood before its encoders and decoders were
compiled per record (``repro.codec.binary``): one ``if``-chain per
direction, one generic walk per value, and ``shareable`` as a second walk
over every first-seen blob span.  It is kept here, test-only, as the
specification the compiled codec is checked against — same bytes out of
``encode``, same objects out of ``decode`` (lazy and materializing), and
"memoised after decode" exactly where ``shareable`` says so
(``tests/test_codec.py::TestCompiledAgainstReference``).  Do not optimise
it and do not import it from ``src/``.
"""

from __future__ import annotations

from typing import Any

from repro.codec import schema as _schema
from repro.codec.binary import (
    _COMPONENT_INSTANCE,
    _COMPONENT_STR,
    _COMPONENT_TABLE_BASE,
    _FLOAT,
    _KIND_INDEX,
    _KIND_MEMBERS,
    SPAN_MEMO_ENTRIES,
    SPAN_MEMO_MAX_BYTES,
    TAG_BLOB,
    TAG_BOTTOM,
    TAG_BYTES,
    TAG_DICT,
    TAG_ENVELOPE,
    TAG_FALSE,
    TAG_FLOAT,
    TAG_FROZENSET,
    TAG_INT,
    TAG_KIND,
    TAG_LIST,
    TAG_NONE,
    TAG_STR,
    TAG_STRUCT,
    TAG_TRUE,
    TAG_TUPLE,
    CodecError,
    Opaque,
)
from repro.runtime.effects import Envelope
from repro.types import BOTTOM, DecisionKind

_COMPONENT_INDEX = {name: i for i, name in enumerate(_schema.COMPONENT_TABLE)}

#: Leaf types no holder can mutate (exact types: subclasses are not trusted).
_ATOM_TYPES = frozenset(
    {int, str, bytes, float, bool, type(None), DecisionKind, type(BOTTOM)}
)


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
    elif kind is Envelope:
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
        if entry is None:
            raise CodecError(
                f"cannot encode {kind.__module__}.{kind.__qualname__}: "
                "not a registered record (@wire_record)"
            )
        _encode_struct(obj, entry, buf)


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


def _encode_envelope(obj: Any, buf: bytearray) -> None:
    buf.append(TAG_ENVELOPE)
    component = obj.component
    index = _COMPONENT_INDEX.get(component)
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
        if memoable and shareable(inner):
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
    return Envelope(component, payload), pos


def shareable(value: Any) -> bool:
    """Whether two deliveries may hold the *same* decoded object: nothing
    mutable anywhere inside it.  Exact types only — a ``list`` and a
    ``dict`` answer no."""
    kind = type(value)
    if kind in _ATOM_TYPES:
        return True
    if kind is tuple or kind is frozenset:
        return all(map(shareable, value))
    if kind is Envelope:
        return shareable(value.payload)
    entry = _schema.entry_for_class(kind)  # registered records are frozen
    return entry is not None and all(
        shareable(getattr(value, name)) for name in entry.fields
    )


def _decode(data: bytes, lazy: bool, memo: dict[bytes, Any] | None) -> Any:
    try:
        value, end = _decode_value(data, 0, lazy, memo)
    except (ValueError, TypeError, RecursionError) as exc:
        raise CodecError(f"malformed value: {type(exc).__name__}: {exc}") from exc
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after value")
    return value


def decode(data: bytes, lazy: bool = False, memo: dict[bytes, Any] | None = None) -> Any:
    """Decode one value; ``memo`` plays a materializing codec's ``_spans``."""
    return _decode(data, lazy, memo)
