"""Crash-*recovery*: replay what was persisted, fetch what was missed.

Three pieces turn the WAL (:mod:`repro.durable.wal`) and the snapshots
(:mod:`repro.durable.snapshot`) into a rejoin path:

* :class:`DurabilityConfig` / :class:`NodeDurability` — per-node
  persistence handles.  A replica commits every settled slot through
  :meth:`NodeDurability.commit` — one :class:`~repro.durable.wal.
  ApplyRecord` per slot — *before* advancing in memory, and on
  restart :meth:`NodeDurability.recover` folds snapshot + log back into
  the slot frontier and applied-batch history.  Periodic snapshots
  (:meth:`NodeDurability.maybe_snapshot`) reset the log so replay length
  stays bounded.
* :class:`CatchUpRequest` / :class:`CatchUpReply` — the rejoin wire
  vocabulary.  Disk only holds what the replica saw *before* dying;
  decisions taken while it was down must come from peers.  A recovering
  replica broadcasts its per-shard frontier; peers answer with the
  ``(shard, slot, batch)`` entries past it plus their own frontiers.
* :class:`CatchUpTracker` — the one Byzantine-safe vote book over peers'
  ``(shard, slot, batch)`` claims, whether a :class:`CatchUpReply` entry
  or a :class:`SlotDecided` notice carried them.  An entry is adopted
  only once ``t + 1`` distinct peers vouch for the *identical* batch (at
  least one of them is correct, and a correct peer only reports batches
  its consensus instance decided — so an adopted batch equals the decided
  batch, which is exactly the verification-against-the-digest the
  recovered replica needs before it may resume proposing).  Rounds repeat
  until a quorum of replies reports no frontier ahead of ours.

Everything here is sans-IO and engine-agnostic: the shard service drives
it with ordinary :class:`~repro.runtime.effects.Send` effects, so the
same rejoin runs on the simulator (virtual time, deterministic) and on
the socket engine (a re-forked OS process re-authenticating to the hub).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from ..codec.schema import wire_record
from ..errors import ConfigurationError
from ..types import ProcessId
from .snapshot import SnapshotStore
from .wal import ApplyRecord, WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "NodeDurability",
    "RecoveredState",
    "CatchUpRequest",
    "CatchUpReply",
    "SlotDecided",
    "CatchUpTracker",
    "MAX_CATCHUP_ENTRIES",
]

#: Cap on entries served in, and absorbed from, one reply: bounds what one reply can cost.
MAX_CATCHUP_ENTRIES = 4096

#: Slot numbers above this are rejected as inflation (mirrors the
#: multiplexer's ``max_slots`` guard) — with one booked claim per
#: ``(peer, shard, slot)`` this is what bounds the vote book.
MAX_CATCHUP_SLOT = 10_000


@dataclass(frozen=True)
class DurabilityConfig:
    """Where and how a deployment persists.

    Args:
        root: directory holding one subdirectory per node (created on
            demand); point different runs at different roots.
        fsync: force every WAL append and snapshot to stable storage
            (machine-crash durability; process-crash durability — the
            engines' fault model — needs only the default flush).
        snapshot_every: decided slots between snapshots (0 = never
            snapshot, replay the whole log).
    """

    root: str
    fsync: bool = False
    snapshot_every: int = 8

    def __post_init__(self) -> None:
        if not self.root:
            raise ConfigurationError("durability root must be a directory path")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be non-negative")

    def node_dir(self, pid: ProcessId) -> str:
        return os.path.join(self.root, f"node{pid}")

    def node(self, pid: ProcessId) -> "NodeDurability":
        """The persistence handle of one replica (directory created)."""
        return NodeDurability(self, pid)


@dataclass(frozen=True)
class RecoveredState:
    """What disk gave back: the state to resume from."""

    slots: dict[int, int]
    applied: dict[int, list[tuple]]
    replayed_records: int
    from_snapshot: bool
    truncated_bytes: int = 0


class NodeDurability:
    """One replica's WAL + snapshot store, opened and self-healed.

    Opening scans the WAL (truncating any damaged tail) and loads the
    last complete snapshot; :meth:`recover` folds both into a
    :class:`RecoveredState`, or ``None`` when this handle created the log
    — which is how a replica distinguishes first boot from restart
    without any flag: recovery is simply "resume from whatever exists",
    and a log file exists, even empty, once the replica has booted.
    """

    def __init__(self, config: DurabilityConfig, pid: ProcessId) -> None:
        self.config = config
        self.pid = pid
        self.directory = config.node_dir(pid)
        os.makedirs(self.directory, exist_ok=True)
        self.snapshots = SnapshotStore(self.directory, fsync=config.fsync)
        path = os.path.join(self.directory, "wal.log")
        # A replica that dies before it settles a slot leaves an empty log,
        # but it has spoken: its restart must still catch up from peers.
        self._booted = os.path.exists(path)
        self.wal = WriteAheadLog(path, fsync=config.fsync)
        self._seq = 0
        self._since_snapshot = 0

    # -- write path ------------------------------------------------------------------

    def commit(self, shard: int, slot: int, batch: tuple) -> None:
        """Persist one settled slot: its one :class:`ApplyRecord`, the
        only record replay reads.  Nothing is logged per proposal — a
        restarted replica recomputes its proposal from the replayed
        batcher, the arrival list and the seed."""
        self.wal.append(ApplyRecord(shard, slot, batch))
        self._since_snapshot += 1

    @property
    def snapshot_due(self) -> bool:
        """Enough slots committed since the last snapshot to take one."""
        return 0 < self.config.snapshot_every <= self._since_snapshot

    def maybe_snapshot(
        self,
        slots: Mapping[int, int],
        applied: Mapping[int, list],
        kv: Mapping[int, Mapping[str, int]],
    ) -> bool:
        """Snapshot and reset the WAL if enough slots accumulated.

        ``applied`` histories may only grow between calls: the store
        encodes just the batches appended since the last snapshot.
        """
        if not self.snapshot_due:
            return False
        self._seq += 1
        self.snapshots.save_state(slots, applied, kv, self._seq)
        self.wal.reset()
        self._since_snapshot = 0
        return True

    # -- read path -------------------------------------------------------------------

    def recover(self, shards: int) -> RecoveredState | None:
        """Fold snapshot + WAL into a resumable state (``None`` = fresh).

        The snapshot (if any) seeds the frontier; apply records then
        replay strictly in slot order — a record for any slot other than
        the shard's current frontier is a duplicate or a remnant of a
        pre-snapshot log and is skipped, so replay is idempotent.  Records
        of other kinds (older logs hold propose and decide records) are
        skipped too.
        """
        snapshot = self.snapshots.load()
        records = self.wal.recovered
        if snapshot is None and not records and not self._booted:
            return None
        slots = {s: 0 for s in range(shards)}
        applied: dict[int, list[tuple]] = {s: [] for s in range(shards)}
        if snapshot is not None:
            self._seq = snapshot.seq
            for shard in range(shards):
                history = tuple(snapshot.applied.get(shard, ()))
                applied[shard] = list(history)
                slots[shard] = len(history)
        replayed = 0
        for record in records:
            if not isinstance(record, ApplyRecord):
                continue
            shard = record.shard
            if shard not in slots or record.slot != slots[shard]:
                continue
            batch = record.batch if isinstance(record.batch, tuple) else ()
            applied[shard].append(batch)
            slots[shard] += 1
            replayed += 1
        return RecoveredState(
            slots=slots,
            applied=applied,
            replayed_records=replayed,
            from_snapshot=snapshot is not None,
            truncated_bytes=self.wal.truncated_bytes,
        )

    def close(self) -> None:
        self.wal.close()


# -- the rejoin wire vocabulary --------------------------------------------------------


@wire_record(tag=36)
@dataclass(frozen=True, slots=True)
class CatchUpRequest:
    """Recovering replica → peers: "what decided past my frontier?"

    ``frontier`` is ``((shard, next_undecided_slot), …)``; ``round``
    echoes back in replies so stale answers from earlier rounds are
    recognizable.
    """

    round: int
    frontier: tuple[tuple[int, int], ...]


@wire_record(tag=37)
@dataclass(frozen=True, slots=True)
class CatchUpReply:
    """Peer → recovering replica: decided entries past the requested
    frontier, plus the peer's own frontier (the recovery-done check)."""

    round: int
    entries: tuple[tuple[int, int, tuple], ...]
    frontier: tuple[tuple[int, int], ...]


@wire_record(tag=38)
@dataclass(frozen=True, slots=True)
class SlotDecided:
    """Peer → lagging replica: "this slot already decided; here is the
    batch."

    Sent unsolicited in two situations a :class:`CatchUpReply` cannot
    cover: an instance's top-level proposal arrives for a slot the
    receiver has already settled (the sender just opened it, so it is
    visibly behind; late sub-component echoes prove nothing), and a slot
    settles while a peer's :class:`CatchUpRequest` is still outstanding
    (the decision landed *between* catch-up rounds).  The claim goes into
    the same vote book as catch-up reply entries
    (:meth:`CatchUpTracker.vote`): adoption needs ``t + 1`` peers vouching
    for the identical batch across both kinds of message, and a single
    Byzantine ``SlotDecided`` can never plant state.
    """

    shard: int
    slot: int
    batch: tuple


class CatchUpTracker:
    """The vote book over peers' decided-slot claims, plus the reply and
    frontier books of the current catch-up round.

    A peer's *first* claim for a ``(shard, slot)`` is the one that counts
    (a correct peer only ever has one), so the book holds at most one
    batch per peer and unsettled slot; :meth:`forget` drops a slot's
    claims once it settles.

    Args:
        threshold: votes required to adopt an entry — ``t + 1``, so at
            least one voucher is correct.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError("catch-up threshold must be at least 1")
        self.threshold = threshold
        self.round = 0
        #: ``(shard, slot) -> voter -> batch`` — votes persist across
        #: rounds (a peer re-reporting an entry changes nothing).
        self._votes: dict[tuple[int, int], dict[ProcessId, tuple]] = {}
        self._replies: set[ProcessId] = set()
        self._frontiers: dict[int, int] = {}

    @property
    def replies(self) -> int:
        """Distinct peers answering the current round."""
        return len(self._replies)

    def new_round(self) -> int:
        """Start a round: reply and frontier books reset, votes kept."""
        self.round += 1
        self._replies.clear()
        self._frontiers.clear()
        return self.round

    def vote(
        self,
        sender: ProcessId,
        shard: object,
        slot: object,
        batch: object,
        slots: Mapping[int, int] | None = None,
    ) -> bool:
        """Book ``sender``'s claim that ``(shard, slot)`` decided ``batch``;
        ``False`` if the claim is malformed or old news.

        The one validation of a claim, whichever message carried it — it
        may come from a Byzantine peer.  ``slots`` is the caller's
        ``shard -> next unsettled slot`` map: a shard it does not name, a
        slot below it (already settled) or at/above
        :data:`MAX_CATCHUP_SLOT` (inflation) books nothing.
        """
        if not (isinstance(shard, int) and isinstance(slot, int) and isinstance(batch, tuple)):
            return False
        floor = 0 if slots is None else slots.get(shard, MAX_CATCHUP_SLOT)
        if not floor <= slot < MAX_CATCHUP_SLOT:
            return False
        self._votes.setdefault((shard, slot), {}).setdefault(sender, batch)
        return True

    def forget(self, shard: int, slot: int) -> None:
        """``(shard, slot)`` settled: its claims are of no further use."""
        self._votes.pop((shard, slot), None)

    def absorb(
        self,
        sender: ProcessId,
        reply: CatchUpReply,
        slots: Mapping[int, int] | None = None,
    ) -> bool:
        """Fold one reply in; ``False`` for stale-round or repeat replies.

        Every field is validated defensively — the reply may come from a
        Byzantine peer: malformed entries are skipped (:meth:`vote`), the
        entry count is capped, and frontiers only *raise* the recorded
        maximum (a liar can delay recovery completion by one round, never
        corrupt adopted state — that is the ``t + 1`` vote rule's job).
        """
        if reply.round != self.round or sender in self._replies:
            return False
        self._replies.add(sender)
        frontier = reply.frontier if isinstance(reply.frontier, tuple) else ()
        for pair in frontier[:MAX_CATCHUP_ENTRIES]:
            if (
                isinstance(pair, tuple)
                and len(pair) == 2
                and isinstance(pair[0], int)
                and isinstance(pair[1], int)
                and 0 <= pair[1] <= MAX_CATCHUP_SLOT
            ):
                shard, slot = pair
                self._frontiers[shard] = max(self._frontiers.get(shard, 0), slot)
        entries = reply.entries if isinstance(reply.entries, tuple) else ()
        for entry in entries[:MAX_CATCHUP_ENTRIES]:
            if isinstance(entry, tuple) and len(entry) == 3:
                self.vote(sender, *entry, slots)
        return True

    def verified(self, shard: int, slot: int) -> tuple | None:
        """The batch ``t + 1`` distinct peers vouch for, or ``None``."""
        claims = self._votes.get((shard, slot))
        if claims:
            batches = list(claims.values())
            for batch in batches:
                if batches.count(batch) >= self.threshold:
                    return batch
        return None

    def frontier_reached(self, slots: Mapping[int, int]) -> bool:
        """No replier of this round reported a frontier ahead of ours."""
        return all(
            reported <= slots.get(shard, 0)
            for shard, reported in self._frontiers.items()
        )
