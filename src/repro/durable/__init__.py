"""repro.durable — write-ahead log, snapshots, and crash-recovery.

The persistence and rejoin subsystem: :mod:`~repro.durable.wal` is the
append-only CRC-checked ground truth, :mod:`~repro.durable.snapshot`
bounds its replay length, and :mod:`~repro.durable.recovery` turns both
plus a peer catch-up protocol into a full kill → restart → rejoin →
still-agree path for the sharded service, on the simulator and the
socket engine alike.
"""

from .recovery import (
    MAX_CATCHUP_ENTRIES,
    CatchUpReply,
    CatchUpRequest,
    CatchUpTracker,
    DurabilityConfig,
    NodeDurability,
    RecoveredState,
    SlotDecided,
)
from .snapshot import SNAPSHOT_NAME, ShardSnapshot, SnapshotStore
from .wal import (
    DEFAULT_MAX_RECORD,
    ApplyRecord,
    DecideRecord,
    ProposeRecord,
    ReadResult,
    WriteAheadLog,
    encode_record,
    scan_records,
)

__all__ = [
    "ApplyRecord",
    "CatchUpReply",
    "CatchUpRequest",
    "CatchUpTracker",
    "DEFAULT_MAX_RECORD",
    "DecideRecord",
    "DurabilityConfig",
    "MAX_CATCHUP_ENTRIES",
    "NodeDurability",
    "ProposeRecord",
    "ReadResult",
    "RecoveredState",
    "SNAPSHOT_NAME",
    "ShardSnapshot",
    "SlotDecided",
    "SnapshotStore",
    "WriteAheadLog",
    "encode_record",
    "scan_records",
]
