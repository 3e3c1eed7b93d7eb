"""``repro.codec`` — the library's single serialization layer.

Everything that turns records into bytes goes through here: the socket
engine's frame payloads (:mod:`repro.net.wire`), the write-ahead log and
snapshots (:mod:`repro.durable`), and the benchmark tooling.  There is one
codec, :class:`BinaryCodec` (module-level :func:`~repro.codec.binary.encode`
/ :func:`~repro.codec.binary.decode` for one-shot use), and its one-byte id
is the wire frame's codec byte and the WAL record's and snapshot's codec
prefix:

======================  ====  ========================================
codec                    id   role
======================  ====  ========================================
(reserved)                1   was pickle; never reassigned
(reserved)                2   was JSON; never reassigned
:class:`BinaryCodec`      3   struct-packed, the only codec
======================  ====  ========================================

The id space is append-only, like the schema registry: ids 1 and 2
belonged to codecs that are gone, and stay reserved so a stray byte 1 or
2 is rejected as an unknown codec rather than decoded as something else.

The schema registry (:mod:`repro.codec.schema`) defines which record
shapes the binary codec struct-packs: a class that crosses a socket or a
disk registers with ``@wire_record``, and encoding an unregistered one is
a :class:`CodecError`.  Value tag ``0x0E`` (it was a pickle escape) is
reserved like ids 1 and 2.
"""

from __future__ import annotations

from .binary import BinaryCodec, CodecError, Opaque

__all__ = [
    "CODEC_BINARY",
    "BinaryCodec",
    "CodecError",
    "Opaque",
]

CODEC_BINARY = 3
