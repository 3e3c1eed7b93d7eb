"""``repro.codec`` — the library's single serialization layer.

Everything that turns records into bytes goes through here: the socket
engine's frame payloads (:mod:`repro.net.wire`), the write-ahead log and
snapshots (:mod:`repro.durable`), and the benchmark tooling.  Two codecs
share one interface (``encode_into(obj, buf)`` / ``encode(obj)`` /
``decode(data)``), selected by a one-byte id that doubles as the wire
frame's codec byte and the WAL record's codec prefix:

======================  ====  ========================================
codec                    id   role
======================  ====  ========================================
:class:`PickleCodec`      1   legacy escape hatch, trusted local only
(reserved)                2   was JSON; never reassigned
:class:`BinaryCodec`      3   the data plane (struct-packed, default)
======================  ====  ========================================

The id space is append-only, like the schema registry: id 2 belonged to a
JSON codec that no schema-registered record could be serialized with, and
stays reserved so a stray byte 2 is rejected as an unknown codec rather
than decoded as something else.

The schema registry (:mod:`repro.codec.schema`) defines which record
shapes the binary codec struct-packs; everything else falls back to an
embedded pickle blob, so encoding is total.
"""

from __future__ import annotations

from typing import Any, Protocol

from .binary import BinaryCodec, CodecError, Opaque
from .fallback import PickleCodec

__all__ = [
    "CODEC_PICKLE",
    "CODEC_BINARY",
    "CODEC_IDS",
    "CODEC_NAMES",
    "BinaryCodec",
    "PickleCodec",
    "PayloadCodec",
    "CodecError",
    "Opaque",
    "codec_for",
    "codec_named",
]

CODEC_PICKLE = 1
CODEC_BINARY = 3

#: Known codec ids, in id order.
CODEC_IDS = (CODEC_PICKLE, CODEC_BINARY)

#: Name -> id, the vocabulary of ``Scenario(codec=)`` / ``--codec``.
CODEC_NAMES = {"pickle": CODEC_PICKLE, "binary": CODEC_BINARY}


class PayloadCodec(Protocol):
    """The interface every codec implements."""

    id: int
    name: str

    def encode_into(self, obj: Any, buf: bytearray) -> None: ...

    def encode(self, obj: Any) -> bytes: ...

    def decode(self, data: bytes) -> Any: ...


#: Shared instances for one-shot encodes and decodes (WAL records, snapshots,
#: frame writers).  A ``FrameDecoder`` builds its own :class:`BinaryCodec`
#: (relay mode is per decoder, and so is a materializing codec's span memo —
#: durable records have no blob-framed field, so the shared one's stays empty).
_BY_ID: dict[int, PayloadCodec] = {
    CODEC_PICKLE: PickleCodec(),
    CODEC_BINARY: BinaryCodec(),
}


def codec_for(codec_id: int) -> PayloadCodec:
    """The codec instance for a wire codec id.

    Raises:
        CodecError: unknown id.
    """
    codec = _BY_ID.get(codec_id)
    if codec is None:
        raise CodecError(f"unknown codec id {codec_id}")
    return codec


def codec_named(name: str) -> int:
    """Map a codec name (CLI / ``Scenario(codec=)``) to its wire id."""
    try:
        return CODEC_NAMES[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; expected one of {sorted(CODEC_NAMES)}"
        ) from None
