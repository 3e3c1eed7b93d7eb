"""Atomic-rename snapshots: compaction for the write-ahead log.

A snapshot captures one :class:`~repro.shard.service.ShardNode`'s durable
state — the per-shard slot frontier, the ordered applied-batch history
(the material of the digest-of-applied-batches decision), and the KV
contents — at a point where every WAL record at or before it is
redundant.  Writing one lets :meth:`~repro.durable.recovery.
NodeDurability.maybe_snapshot` reset the log, bounding replay length.

Crash safety is the classic two-step: serialize into ``snapshot.tmp``,
flush (and optionally fsync), then ``os.replace`` onto ``snapshot.bin``.
``os.replace`` is atomic on POSIX, so a reader observes either the old
complete snapshot or the new complete snapshot, never a torn hybrid — a
crash mid-write loses at most the *new* snapshot, and the WAL records it
would have compacted are still on disk.  The payload carries the same
``length | crc32 | codec id`` framing as a WAL record (struct-packed
binary, the only codec), so a corrupt snapshot is detected and ignored
(recovery then falls back to genesis + full log replay) instead of
poisoning the restarted node.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Mapping

from ..codec import CODEC_BINARY
from ..codec.binary import (
    TAG_DICT,
    TAG_STRUCT,
    TAG_TUPLE,
    _write_varint,
    decode,
    encode,
    encode_into,
)
from ..codec.schema import wire_record

__all__ = ["ShardSnapshot", "SnapshotStore", "SNAPSHOT_NAME"]

#: File names inside a node's durability directory.
SNAPSHOT_NAME = "snapshot.bin"
SNAPSHOT_TMP = "snapshot.tmp"

_HEADER = struct.Struct("!II")

_SNAPSHOT_TAG = 35


@wire_record(tag=_SNAPSHOT_TAG)
@dataclass(frozen=True)
class ShardSnapshot:
    """Point-in-time durable state of one sharded replica.

    Attributes:
        slots: next undecided slot per shard (the frontier).
        applied: ordered applied batches per shard — index = slot; this is
            the *full* history because the replica's top-level decision is
            the digest over it.
        kv: per-shard key→value contents at the frontier (redundant with
            ``applied``, kept as a cheap cross-check for tests and tools).
        seq: monotone snapshot counter (0 = never snapshotted).
    """

    slots: dict[int, int] = field(default_factory=dict)
    applied: dict[int, tuple] = field(default_factory=dict)
    kv: dict[int, dict[str, int]] = field(default_factory=dict)
    seq: int = 0


class SnapshotStore:
    """Reads and atomically writes one node's snapshot file.

    Args:
        directory: the node's durability directory (must exist).
        fsync: flush the temp file to stable storage before the rename.
    """

    def __init__(self, directory: str, fsync: bool = False) -> None:
        self.directory = directory
        self.fsync = fsync
        self.path = os.path.join(directory, SNAPSHOT_NAME)
        self._tmp = os.path.join(directory, SNAPSHOT_TMP)
        #: shard -> (batches encoded, their concatenated bytes), for
        #: :meth:`save_state`.
        self._encoded: dict[int, tuple[int, bytearray]] = {}

    def save(self, snapshot: ShardSnapshot) -> None:
        """Write ``snapshot`` atomically (write temp → flush → rename)."""
        self._write(encode(snapshot))

    def save_state(
        self,
        slots: Mapping[int, int],
        applied: Mapping[int, list],
        kv: Mapping[int, Mapping[str, int]],
        seq: int,
    ) -> None:
        """:meth:`save` of the :class:`ShardSnapshot` over these four, byte
        for byte, at the encoding cost of the batches appended since the
        last call instead of the whole history.

        The binary record is its fields in order and ``applied`` is
        ``shard -> tuple of batches``, so each shard's encoded batches are
        a prefix of its next snapshot's: keep them, encode only the tail,
        and splice.  A store that has encoded nothing yet (a restarted
        node's first snapshot) or is handed a shorter history encodes it
        all.
        """
        body = bytearray((TAG_STRUCT,))
        _write_varint(_SNAPSHOT_TAG, body)
        encode_into(dict(slots), body)
        body.append(TAG_DICT)
        _write_varint(len(applied), body)
        for shard, batches in applied.items():
            encode_into(shard, body)
            count, encoded = self._encoded.get(shard) or (0, bytearray())
            if count > len(batches):
                count, encoded = 0, bytearray()
            for batch in batches[count:]:
                encode_into(batch, encoded)
            self._encoded[shard] = (len(batches), encoded)
            body.append(TAG_TUPLE)
            _write_varint(len(batches), body)
            body += encoded
        encode_into({s: dict(data) for s, data in kv.items()}, body)
        encode_into(seq, body)
        self._write(bytes(body))

    def _write(self, encoded: bytes) -> None:
        payload = bytes((CODEC_BINARY,)) + encoded
        blob = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with open(self._tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(self._tmp, self.path)

    def load(self) -> ShardSnapshot | None:
        """The last complete snapshot, or ``None``.

        Missing, truncated, CRC-failing, foreign-codec and undecodable
        files all return ``None`` — recovery falls back to genesis + log
        replay rather than trusting a damaged snapshot.
        """
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        if len(data) < _HEADER.size:
            return None
        length, crc = _HEADER.unpack_from(data)
        payload = data[_HEADER.size : _HEADER.size + length]
        if len(payload) != length or len(payload) == 0 or zlib.crc32(payload) != crc:
            return None
        if payload[0] != CODEC_BINARY:
            return None  # a reserved or unknown codec byte: never decoded
        try:
            snapshot = decode(payload[1:])
        except Exception:
            return None
        return snapshot if isinstance(snapshot, ShardSnapshot) else None
