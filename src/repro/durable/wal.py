"""Append-only, CRC-checked per-node write-ahead log.

The durability layer's ground truth: one :class:`ApplyRecord` per settled
slot, appended *before* the in-memory state advances — the only record
replay reads.  :class:`ProposeRecord` and :class:`DecideRecord` stay
registered so older logs still scan, but nothing writes them.

The on-disk format reuses the framing idioms of :mod:`repro.net.wire` —
a big-endian length prefix, a strict size cap checked before a single
payload byte is trusted, and sans-IO decoding — with a CRC-32 in place
of the wire version/codec header (a log is read back by the process
family that wrote it, but the *bytes* may be torn by the crash that
makes the log matter)::

    +----------------+----------------+----------------+--------------+
    | length (4B BE) | crc32 (4B BE)  | codec id (1B)  | body (bytes) |
    +----------------+----------------+----------------+--------------+

``length`` counts the payload (codec byte + body); the body is one record
dataclass in the struct-packed binary codec (:mod:`repro.codec`), and the
codec byte is always ``CODEC_BINARY``.
Recovery never raises on a damaged log: :func:`scan_records` walks
records until the first hole — a torn final record (the classic
crash-mid-append), a flipped CRC byte, an implausible length, a codec
byte other than ``CODEC_BINARY``, an undecodable payload — and
everything from the hole onward is discarded, because nothing after a
corrupt record can be trusted to be aligned.
:class:`WriteAheadLog` then truncates the file back to the last good
record, so the log is append-ready again.

Durability is two-tier, like every real WAL: ``flush`` (the default)
survives process death — the write is in the page cache the moment
``append`` returns, which is exactly the crash model of the net engine's
killed workers — while ``fsync=True`` additionally survives the machine,
at the steady-state throughput cost experiment E20 measures.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from ..codec import CODEC_BINARY
from ..codec.binary import decode, encode
from ..codec.schema import wire_record

__all__ = [
    "ProposeRecord",
    "DecideRecord",
    "ApplyRecord",
    "ReadResult",
    "encode_record",
    "scan_records",
    "WriteAheadLog",
]

#: Cap on one record's payload — mirrors the wire-frame cap: a batch of
#: client commands is a few hundred bytes, so anything near this is
#: corruption, not data.
DEFAULT_MAX_RECORD = 1 << 20

_HEADER = struct.Struct("!II")  # payload length, crc32(payload)
_CODEC_BYTE = bytes((CODEC_BINARY,))


@wire_record(tag=32)
@dataclass(frozen=True, slots=True)
class ProposeRecord:
    """This replica proposed ``batch`` for ``(shard, slot)``.

    Written by older replicas only; replay skips it (a restarted replica
    recomputes its proposal from its replayed state).
    """

    shard: int
    slot: int
    batch: tuple


@wire_record(tag=33)
@dataclass(frozen=True, slots=True)
class DecideRecord:
    """Slot ``(shard, slot)`` decided; ``kind`` is the decision path
    (a :class:`~repro.types.DecisionKind` value, or ``"catchup"`` for
    slots adopted from peers during recovery).  Written by older replicas
    only; replay skips it."""

    shard: int
    slot: int
    kind: str


@wire_record(tag=34)
@dataclass(frozen=True, slots=True)
class ApplyRecord:
    """``batch`` was applied to ``(shard, slot)``'s state machine.

    The replay unit: recovery folds these, in order, into fresh stores.
    """

    shard: int
    slot: int
    batch: tuple


def encode_record(record: Any, max_record: int = DEFAULT_MAX_RECORD) -> bytes:
    """One record as a complete on-disk frame (codec byte + encoded body).

    Raises:
        ValueError: the encoded payload exceeds ``max_record``.
    """
    payload = _CODEC_BYTE + encode(record)
    if len(payload) > max_record:
        raise ValueError(
            f"record payload of {len(payload)} bytes exceeds the cap of {max_record}"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ReadResult:
    """What a log scan trusted.

    Attributes:
        records: every record up to the first hole, in append order.
        good_bytes: offset of the first byte that cannot be trusted (the
            self-healing truncation point).
    """

    records: list[Any] = field(default_factory=list)
    good_bytes: int = 0


def scan_records(path: str, max_record: int = DEFAULT_MAX_RECORD) -> ReadResult:
    """Read every trustworthy record off a log file.

    Returns a :class:`ReadResult`; a missing file is an empty log.
    Corruption is a *stop*, never an exception: a torn tail, a failed CRC,
    an implausible length, a foreign codec byte and an undecodable payload
    all end the scan at the last good record — bytes after a hole have no
    reliable framing and are dropped wholesale.
    """
    result = ReadResult()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return result
    offset = 0
    header = _HEADER.size
    while offset + header <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        if length > max_record or length == 0:
            break  # implausible length: corrupt header
        end = offset + header + length
        if end > len(data):
            break  # torn tail: the crash hit mid-append
        payload = data[offset + header : end]
        if zlib.crc32(payload) != crc:
            break  # bit rot or a torn overwrite
        if payload[0] != CODEC_BINARY:
            break  # a reserved or unknown codec byte: never decoded
        try:
            record = decode(payload[1:])
        except Exception:
            break  # garbage body; do not trust the rest
        result.records.append(record)
        offset = end
    result.good_bytes = offset
    return result


class WriteAheadLog:
    """One node's append-only log, self-healing on open.

    Opening scans the existing file (if any), truncates any damaged tail
    back to the last good record, and leaves the file open for appends.
    The records that survived the scan are exposed as :attr:`recovered`
    for the recovery layer to replay.

    Args:
        path: log file path (created if missing).
        fsync: force every append to stable storage (survives the
            machine, not just the process) — the knob experiment E20
            prices.
        max_record: per-record payload cap, enforced both ways.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        max_record: int = DEFAULT_MAX_RECORD,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.max_record = max_record
        scan = scan_records(path, max_record)
        self.recovered: list[Any] = scan.records
        self.truncated_bytes = 0
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size > scan.good_bytes:
            self.truncated_bytes = size - scan.good_bytes
            with open(path, "r+b") as fh:
                fh.truncate(scan.good_bytes)
        self._file = open(path, "ab")
        self.record_count = len(scan.records)

    def append(self, record: Any) -> None:
        """Durably append one record (flushed; fsynced when configured)."""
        self._file.write(encode_record(record, self.max_record))
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.record_count += 1

    def reset(self) -> None:
        """Drop every record (called after a snapshot made them redundant)."""
        self._file.truncate(0)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.record_count = 0
        self.recovered = []

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
