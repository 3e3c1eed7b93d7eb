"""The sharded replicated-state-machine service.

The paper's §1.1 motivation — replicated servers ordering client update
requests — at "heavy traffic" scale: the keyspace is split into shards,
each shard orders its own batched command log through consecutive
consensus instances of one algorithm (DEX-freq unless told otherwise), and
*all* instances of *all* shards multiplex over one engine (one hub
connection per node on the socket engine).  One shard with one command per
batch is the paper's sequential replicated log, one slot in flight.

Pieces:

* :func:`shard_workload` — a seeded client request stream with
  configurable key skew (``uniform`` or ``zipf``; skew drives contention,
  and contention drives the one-step rate) in open loop (arrivals paced by
  ``rate`` per slot-tick) or closed loop (everything enqueued up front);
* :class:`ShardNode` — one replica: *is* the :class:`~repro.shard.router.
  ShardMultiplexer` of per-``(shard, slot)`` consensus instances, plus one
  :class:`~repro.shard.batcher.ShardBatcher` and one
  :class:`KeyValueStore` per shard.  When a slot decides,
  the batch is applied, losers are re-proposed, and the next slot opens;
  when every shard drains, the replica emits its single top-level
  ``Decide`` whose value is the *digest* of all applied batches — so the
  engines' agreement check doubles as the cross-shard divergence check,
  even when replicas are forked OS processes whose stores the parent
  cannot inspect;
* :class:`ShardedService` — the frontend: builds the deployment (through
  the harness's :class:`~repro.harness.Deployment`), runs it on any
  engine, and folds the typed event stream into per-shard and aggregate
  throughput/latency/one-step-rate (see :mod:`repro.shard.metrics`).

Contention follows the paper's §1.1 story — "two or more concurrent
update-requests for the same data object" — per ``(shard, slot)``: with
probability ``contention`` a slot has two competing batches (head vs.
shifted-by-one rival) and each replica independently saw one of them
first.  All coins are derived from arithmetic-integer seeds —
never from string hashes — so forked replicas flip identically.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..durable.recovery import (
    MAX_CATCHUP_ENTRIES,
    CatchUpReply,
    CatchUpRequest,
    CatchUpTracker,
    DurabilityConfig,
    NodeDurability,
    RecoveredState,
    SlotDecided,
)
from ..engine.events import EventSink, combine
from ..engine.faults import Fault, FaultPlane, restart_plans
from ..engine.run import DEFAULT_MAX_EVENTS
from ..errors import ConfigurationError
from ..harness import AlgorithmSpec, Deployment, dex_freq
from ..runtime.effects import Decide, Effect, Send
from ..runtime.protocol import Protocol
from ..types import DecisionKind, ProcessId, SystemConfig, Value
from ..underlying.oracle import SERVICE_NAME, OracleConsensus, OracleService
from .batcher import ShardBatcher
from .metrics import ShardStreamSink
from .router import ShardInstanceFactory, ShardMultiplexer, parse_instance, shard_of

__all__ = [
    "Command",
    "KeyValueStore",
    "shard_workload",
    "instance_factory",
    "ShardNode",
    "ShardReport",
    "ShardedService",
]

#: A state-machine command: ``("set", key, value)``.
Command = tuple[str, str, int]


class KeyValueStore:
    """The deterministic state machine each shard replicates; its history
    is the replica's one applied log, :attr:`ShardNode.applied`."""

    def __init__(self) -> None:
        self.data: dict[str, int] = {}

    def apply(self, command: Command) -> None:
        kind, key, value = command
        if kind != "set":
            raise ValueError(f"unknown command kind {kind!r}")
        self.data[key] = value


#: Key-skew models of the workload generator.
SKEWS = ("uniform", "zipf")


def shard_workload(
    count: int,
    keyspace: int = 32,
    skew: str = "uniform",
    zipf_alpha: float = 1.2,
    rate: int | None = None,
    seed: int = 0,
) -> list[tuple[int, Command]]:
    """A reproducible client request stream: ``[(arrival_slot, command)]``.

    Args:
        count: number of ``set`` commands.
        keyspace: number of distinct keys (``k0`` … ``k<keyspace-1>``).
        skew: ``"uniform"`` — every key equally likely; ``"zipf"`` — key
            rank ``r`` drawn with weight ``1/r^alpha`` (hot keys
            concentrate traffic on few shards, the adverse case).
        zipf_alpha: zipf exponent (higher = more skewed).
        rate: open-loop arrival rate in commands per slot-tick; ``None``
            runs closed-loop (everything arrives at slot 0).
        seed: workload seed (independent of the engine seed).
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if keyspace < 1:
        raise ConfigurationError("need at least one key")
    if skew not in SKEWS:
        raise ConfigurationError(f"unknown skew {skew!r} (one of: {', '.join(SKEWS)})")
    if rate is not None and rate < 1:
        raise ConfigurationError("open-loop rate must be at least 1 per slot")
    rng = random.Random(seed * 7_919 + 11)
    keys = [f"k{i}" for i in range(keyspace)]
    weights = (
        [1.0 / (rank + 1) ** zipf_alpha for rank in range(keyspace)]
        if skew == "zipf"
        else None
    )
    stream: list[tuple[int, Command]] = []
    for j in range(count):
        arrival = 0 if rate is None else j // rate
        key = keys[rng.randrange(keyspace)] if weights is None else rng.choices(keys, weights)[0]
        stream.append((arrival, ("set", key, j)))
    return stream


def instance_factory(
    algorithm: AlgorithmSpec, process_id: ProcessId, config: SystemConfig
) -> ShardInstanceFactory:
    """Per-``(shard, slot)`` instances of ``algorithm`` over the shared
    oracle UC: each instance uses its own oracle instance key, so one
    :class:`~repro.underlying.oracle.OracleService` serves every shard."""

    def make(shard: int, slot: int, proposal: Value) -> Protocol:
        return algorithm.make(
            process_id,
            config,
            proposal,
            lambda pid, cfg, key=(shard, slot): OracleConsensus(pid, cfg, instance=key),
        )

    return make


# -- deterministic contention coins ---------------------------------------------------


def _slot_rng(seed: int, shard: int, slot: int, pid: int = -1) -> random.Random:
    """A PRNG keyed by ``(seed, shard, slot[, pid])`` via pure integer
    arithmetic — identical in every replica process regardless of
    ``PYTHONHASHSEED`` (tuple seeds with strings would be salted)."""
    key = ((seed + 1) * 1_000_003 + shard) * 1_000_003 + slot
    return random.Random(key * 1_000_003 + pid + 7)


def proposal_for(
    pid: ProcessId,
    shard: int,
    slot: int,
    batcher: ShardBatcher,
    contention: float,
    seed: int,
) -> tuple:
    """This replica's batch proposal for ``(shard, slot)``.

    With probability ``contention`` the slot is contended: two concurrent
    client submissions race, and each replica saw one of the two batches
    first (an independent fair coin per replica, so a random majority
    backs the head batch).
    """
    head = batcher.head_batch()
    rival = batcher.rival_batch()
    if (
        rival != head
        and contention > 0.0
        and _slot_rng(seed, shard, slot).random() < contention
    ):
        return head if _slot_rng(seed, shard, slot, pid).random() < 0.5 else rival
    return head


class ShardNode(ShardMultiplexer):
    """One replica of the sharded service: the ``(shard, slot)`` instance
    multiplexer plus the per-shard batching, state and recovery around it.

    Args:
        process_id: replica id.
        config: system parameters.
        shards: shard count.
        arrivals: the full client stream (``[(arrival_slot, command)]``);
            the node routes each command to its shard via
            :func:`~repro.shard.router.shard_of`.
        make_instance: per-``(shard, slot)`` consensus factory.
        max_batch, max_wait: batch bounds per shard (see
            :class:`~repro.shard.batcher.ShardBatcher`).
        contention: probability a slot has two competing batches.
        seed: contention-coin seed (must match across replicas).
        durability: optional :class:`~repro.durable.recovery.
            NodeDurability` — when present, every decided slot is
            committed to the WAL before the in-memory state advances,
            periodic snapshots bound replay, and ``on_start`` resumes
            from disk (then catches missed slots up from peers) instead
            of starting fresh.  ``None`` (the default) leaves the node
            byte-identical to the pre-durability behavior.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        shards: int,
        arrivals: Sequence[tuple[int, Command]],
        make_instance,
        max_batch: int = 4,
        max_wait: int = 2,
        contention: float = 0.0,
        seed: int = 0,
        durability: NodeDurability | None = None,
    ) -> None:
        super().__init__(process_id, config, make_instance, shards)
        self.contention = contention
        self.seed = seed
        self.durability = durability
        self._batchers = {s: ShardBatcher(max_batch, max_wait) for s in range(shards)}
        # per-shard arrival queues, consumed from the head once per arrival
        self._arrivals: dict[int, deque[tuple[int, Command]]] = {
            s: deque() for s in range(shards)
        }
        for arrival, command in arrivals:
            self._arrivals[shard_of(command[1], shards)].append((arrival, command))
        self._slot = {s: 0 for s in range(shards)}
        self.stores = {s: KeyValueStore() for s in range(shards)}
        self.applied: dict[int, list[tuple]] = {s: [] for s in range(shards)}
        self._drained: set[int] = set()
        self._done = False
        # crash-recovery state: while ``_recovering`` the node adopts
        # peer-verified slots instead of proposing; ``_catchup`` is the one
        # book of peers' ``(shard, slot, batch)`` claims, whichever message
        # carried them; ``_future`` buffers decisions of its own instances
        # that ran ahead of the frontier.
        self._recovering = False
        self._catchup = CatchUpTracker(config.t + 1)
        self._future: dict[tuple[int, int], Any] = {}
        # rejoin evidence, per ``(peer, shard)``: a peer is offered decided
        # slots only between its ``CatchUpRequest`` and its next top-level
        # proposal at or past our frontier on that shard.  The keys of
        # ``_decided_served`` are the pairs under evidence, each mapped to
        # the slots already offered to it (one ``SlotDecided`` per slot);
        # ``_late`` remembers the newest stale proposal of a pair without
        # evidence, for a request the transport delivers after it.  Both
        # hold at most ``(n - 1) * shards`` keys, and a pair's offered
        # slots go when its evidence clears.
        self._decided_served: dict[tuple[ProcessId, int], set[int]] = {}
        self._late: dict[tuple[ProcessId, int], int] = {}

    # -- slot lifecycle --------------------------------------------------------------

    def _inject(self, shard: int) -> None:
        """Move every arrival due by the shard's current slot into its batcher."""
        now = self._slot[shard]
        pending = self._arrivals[shard]
        while pending and pending[0][0] <= now:
            _, command = pending.popleft()
            self._batchers[shard].submit(command, now)

    def _open(self, shard: int) -> list[Effect]:
        """Open the shard's next slot — full batch, aged partial batch,
        heartbeat (empty batch, to advance the slot clock while traffic is
        still arriving), or nothing if the shard drained."""
        slot = self._slot[shard]
        self._inject(shard)
        batcher = self._batchers[shard]
        future = bool(self._arrivals[shard])
        if batcher.ready(slot) or (len(batcher) and not future):
            batch = proposal_for(
                self.process_id, shard, slot, batcher, self.contention, self.seed
            )
        elif len(batcher) or future:
            batch = ()  # heartbeat: ages the partial batch / awaits arrivals
        else:
            self._drained.add(shard)
            return self._maybe_finish()
        effects: list[Effect] = [
            self.log("shard.open", shard=shard, slot=slot, size=len(batch))
        ]
        effects.extend(self.propose(shard, slot, batch))
        return effects

    def _maybe_finish(self) -> list[Effect]:
        if self._done or len(self._drained) < self.shards:
            return []
        self._done = True
        digest = tuple(
            (shard, tuple(self.applied[shard])) for shard in range(self.shards)
        )
        return [Decide(digest, DecisionKind.UNDERLYING)]

    def _apply(self, shard: int, batch: Any) -> int:
        """Apply one decided batch; returns the number of applied commands.
        Malformed (Byzantine-injected) entries are skipped, not applied."""
        applied = 0
        if not isinstance(batch, tuple):
            return 0
        for command in batch:
            if (
                isinstance(command, tuple)
                and len(command) == 3
                and command[0] == "set"
            ):
                self.stores[shard].apply(command)
                applied += 1
        return applied

    # -- protocol hooks --------------------------------------------------------------

    def on_start(self) -> list[Effect]:
        if self.durability is not None:
            recovered = self.durability.recover(self.shards)
            if recovered is not None:
                return self._resume_from(recovered)
        effects: list[Effect] = []
        for shard in range(self.shards):
            effects.extend(self._open(shard))
        return effects

    def on_instance_decided(
        self, shard: int, slot: int, batch: Any, kind: DecisionKind
    ) -> list[Effect]:
        if slot != self._slot[shard]:
            if slot > self._slot[shard]:
                # An own-instance decision ahead of the frontier.  With
                # durability that means this node fell behind (it was down
                # while peers kept deciding) — buffer it and make sure a
                # catch-up round is running to fill the gap.  Without, it
                # is transport reordering: a passive instance collected a
                # quorum for slot k+1 before slot k's decision landed
                # (independent per-hub jitter makes this routine on a
                # mesh).  Either way the instance decides exactly once, so
                # dropping the value would wedge the slot forever — buffer
                # it and let the advancing frontier settle it.
                self._future[(shard, slot)] = batch
                effects = [
                    self.log("shard.future-decision", shard=shard, slot=slot)
                ]
                if self.durability is not None and not self._recovering:
                    effects.extend(self._enter_catchup())
                return effects
            return [self.log("shard.stale-decision", shard=shard, slot=slot)]
        return self._commit(shard, slot, batch, kind)

    def on_instance_message(self, sender: ProcessId, component: str) -> list[Effect]:
        """The rejoin evidence rule, run by the multiplexer before it routes
        an instance's own top-level message.

        A replica that needs slot ``k`` must *open* it, and opening
        broadcasts the instance's own top-level message (DEX line 3,
        ``P-Send``) to every peer — an instance envelope whose payload is
        not a sub-component envelope, the one kind of arrival this hook
        sees.  A late ``idb``/``uc`` envelope is evidence of nothing (a
        peer that has itself decided keeps echoing, and a restarted one
        echoes before it has caught up) and is only routed.

        A proposal at or past our frontier says its sender is current on
        that shard: whatever evidence we held against the pair is dropped.
        A proposal for a slot we have settled is late — routinely so on a
        healthy run, where a replica decides one-step off the first
        ``n - t`` and the rest trail in; our instance still answers those.
        Only a sender that *restarted* cannot use the answers: our
        first-step messages went out while it was down, so its fresh
        instance can never collect them and stalls without help.  Its
        ``CatchUpRequest`` is the evidence of that; between the request and
        its next current proposal on the shard, each late proposal is
        answered with the decided slot (once per slot, ahead of whatever
        the routed proposal produces), and every stalled opener reaches
        ``>= n - t - 1 >= t + 1`` settled peers this way.  The transport
        may deliver the request *after* the late proposal it explains
        (independent jitter per message, independent hubs on a mesh), so
        the newest late slot per pair is remembered and offered when the
        request lands (:meth:`_serve_catchup`).
        """
        if self.durability is None:
            return []
        key = parse_instance(component)
        if key is None or not 0 <= key[0] < self.shards:
            return []
        shard, slot = key
        pair = (sender, shard)
        if slot >= self._slot[shard]:
            self._decided_served.pop(pair, None)
            self._late.pop(pair, None)
        elif pair in self._decided_served:
            return self._offer_decided(sender, shard, slot)
        elif slot > self._late.get(pair, -1):
            self._late[pair] = slot
        return []

    def on_own_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        if isinstance(payload, CatchUpRequest):
            return self._serve_catchup(sender, payload)
        if isinstance(payload, CatchUpReply):
            return self._absorb_catchup(sender, payload)
        if isinstance(payload, SlotDecided):
            return self._absorb_decided(sender, payload)
        return super().on_own_message(sender, payload)

    # -- decided-slot bookkeeping ----------------------------------------------------

    def _settle(self, shard: int, slot: int, batch: Any) -> tuple:
        """Apply one decided slot and advance the frontier (persisting
        through the WAL first when durable); returns the safe batch.

        Arrivals due by ``slot`` are injected before the batch is
        acknowledged: a no-op on the proposing path (``_open`` already
        injected them) but essential when *adopting* peer-decided slots,
        so commands the peers batched are marked done rather than
        lingering as pending re-proposals.
        """
        safe_batch = batch if isinstance(batch, tuple) else ()
        self._catchup.forget(shard, slot)
        if self.durability is not None:
            self.durability.commit(shard, slot, safe_batch)
        self._inject(shard)  # ``slot`` is the frontier: the shard's current slot
        self._apply(shard, safe_batch)
        self.applied[shard].append(safe_batch)
        self._batchers[shard].acknowledge(safe_batch, now=slot + 1)
        self._slot[shard] = slot + 1
        if self.durability is not None and self.durability.snapshot_due:
            self.durability.maybe_snapshot(
                self._slot,
                self.applied,
                {s: store.data for s, store in self.stores.items()},
            )
        return safe_batch

    def _commit(self, shard: int, slot: int, batch: Any, kind: Any) -> list[Effect]:
        """A frontier decision from this node's own consensus instance.

        The decision is not surfaced as a runner output: the digest this
        replica decides at the end carries every batch, and an output per
        slot would ship each one to the hub a second time."""
        safe_batch = self._settle(shard, slot, batch)
        effects: list[Effect] = [
            self.log(
                "shard.decide",
                shard=shard,
                slot=slot,
                kind=kind.value,
                size=len(safe_batch),
            )
        ]
        effects.extend(self._notify_rejoining(shard, slot))
        effects.extend(self._advance(shard))
        if not self._recovering:
            effects.extend(self._open(shard))
        return effects

    def _advance(self, shard: int) -> list[Effect]:
        """Settle every frontier slot that needs no consensus round of this
        node's: its own instance's decision buffered in ``_future`` (it ran
        ahead of the frontier), else the batch ``t + 1`` peers vouch for.
        Logged as recovery slots — this node never opened them."""
        effects: list[Effect] = []
        while True:
            slot = self._slot[shard]
            if (shard, slot) in self._future:
                batch = self._future.pop((shard, slot))
            else:
                batch = self._catchup.verified(shard, slot)
                if batch is None:
                    return effects
            safe_batch = self._settle(shard, slot, batch)
            effects.append(
                self.log("recovery.slot", shard=shard, slot=slot, size=len(safe_batch))
            )

    # -- crash recovery: replay ------------------------------------------------------

    def _resume_from(self, recovered: RecoveredState) -> list[Effect]:
        """Rebuild the in-memory state from disk, then catch up from peers.

        The batcher replay interleaves arrival injection and decided-batch
        acknowledgement slot by slot — the same order the live path runs
        them — so the rebuilt pending queue equals the pre-crash one.
        """
        for shard in range(self.shards):
            slot = recovered.slots.get(shard, 0)
            batches = recovered.applied.get(shard, [])
            batcher = self._batchers[shard]
            pending = self._arrivals[shard]
            for s in range(slot):
                while pending and pending[0][0] <= s:
                    _, command = pending.popleft()
                    batcher.submit(command, s)
                batch = batches[s] if s < len(batches) else ()
                safe_batch = batch if isinstance(batch, tuple) else ()
                self._apply(shard, safe_batch)
                self.applied[shard].append(safe_batch)
                batcher.acknowledge(safe_batch, now=s + 1)
            self._slot[shard] = slot
        effects: list[Effect] = [
            self.log(
                "recovery.replayed",
                slots=dict(self._slot),
                records=recovered.replayed_records,
                snapshot=recovered.from_snapshot,
                truncated=recovered.truncated_bytes,
            )
        ]
        effects.extend(self._enter_catchup())
        return effects

    # -- crash recovery: peer catch-up ----------------------------------------------

    def _enter_catchup(self) -> list[Effect]:
        """Start (or restart) a catch-up round: broadcast our frontier and
        stop proposing until peers confirm nothing decided past it."""
        self._recovering = True
        round_no = self._catchup.new_round()
        frontier = tuple((s, self._slot[s]) for s in range(self.shards))
        request = CatchUpRequest(round_no, frontier)
        effects: list[Effect] = [
            self.log("recovery.catchup-round", round=round_no, frontier=frontier)
        ]
        effects.extend(
            Send(dst, request)
            for dst in self.config.processes
            if dst != self.process_id
        )
        return effects

    def _serve_catchup(self, sender: ProcessId, request: CatchUpRequest) -> list[Effect]:
        """Answer a recovering peer: every applied batch past its frontier
        (capped), plus our own frontier so it knows when it is current.

        The request is the evidence that the sender restarted or fell
        behind, on every shard: a late proposal of its that overtook the
        request is answered now, and slots that settle *after* this reply —
        the window between its catch-up rounds — are pushed to it
        unsolicited as :class:`~repro.durable.recovery.SlotDecided`."""
        offers: list[Effect] = []
        for shard in range(self.shards):
            self._decided_served.setdefault((sender, shard), set())
            late = self._late.pop((sender, shard), None)
            if late is not None:
                offers.extend(self._offer_decided(sender, shard, late))
        wanted: dict[int, int] = {}
        frontier = request.frontier if isinstance(request.frontier, tuple) else ()
        for pair in frontier[: self.shards * 2]:
            if (
                isinstance(pair, tuple)
                and len(pair) == 2
                and isinstance(pair[0], int)
                and isinstance(pair[1], int)
            ):
                wanted[pair[0]] = max(pair[1], 0)
        entries: list[tuple[int, int, tuple]] = []
        for shard in range(self.shards):
            history = self.applied[shard]
            for slot in range(min(wanted.get(shard, 0), len(history)), len(history)):
                if len(entries) >= MAX_CATCHUP_ENTRIES:
                    break
                entries.append((shard, slot, history[slot]))
        reply = CatchUpReply(
            request.round,
            tuple(entries),
            tuple((s, len(self.applied[s])) for s in range(self.shards)),
        )
        return [
            self.log("recovery.served", peer=sender, entries=len(entries)),
            Send(sender, reply),
            *offers,
        ]

    def _absorb_catchup(self, sender: ProcessId, reply: CatchUpReply) -> list[Effect]:
        """Fold one catch-up reply in; adopt every slot ``t + 1`` distinct
        peers vouch for, finish once a quorum confirms our frontier."""
        if not self._recovering:
            return []
        if not self._catchup.absorb(sender, reply, self._slot):
            return []
        effects: list[Effect] = []
        for shard in range(self.shards):
            effects.extend(self._advance(shard))
        threshold = self.config.t + 1
        if self._catchup.replies >= threshold and self._catchup.frontier_reached(
            self._slot
        ):
            effects.extend(self._finish_catchup())
        elif self._catchup.replies >= self.config.n - 1 - self.config.t:
            # Every reply a full round can guarantee is in and we are
            # still behind some reported frontier: ask again.
            effects.extend(self._enter_catchup())
        return effects

    def _finish_catchup(self) -> list[Effect]:
        """Frontier verified against a quorum: resume proposing."""
        self._recovering = False
        effects: list[Effect] = [
            self.log(
                "recovery.caught_up",
                slots=dict(self._slot),
                rounds=self._catchup.round,
            )
        ]
        for shard in range(self.shards):
            effects.extend(self._open(shard))
        return effects

    # -- crash recovery: re-serving decided slots -------------------------------------

    def _offer_decided(self, peer: ProcessId, shard: int, slot: int) -> list[Effect]:
        """Push one already-decided slot to a peer we hold rejoin evidence
        against on that shard, at most once per slot — the peer adopts it
        only under the same ``t + 1`` identical-batch rule as catch-up
        replies."""
        offered = self._decided_served.get((peer, shard))
        if (
            offered is None
            or slot in offered
            or peer == self.process_id
            or peer not in self.config.processes
        ):
            return []
        history = self.applied[shard]
        if slot >= len(history):
            return []
        offered.add(slot)
        return [
            self.log("recovery.re_served", peer=peer, shard=shard, slot=slot),
            Send(peer, SlotDecided(shard, slot, history[slot])),
        ]

    def _notify_rejoining(self, shard: int, slot: int) -> list[Effect]:
        """A slot just settled while peers have catch-up requests
        outstanding: push it to each of them, closing the race where the
        decision lands *between* their catch-up rounds."""
        effects: list[Effect] = []
        for peer, behind_on in sorted(self._decided_served):
            if behind_on == shard:
                effects.extend(self._offer_decided(peer, shard, slot))
        return effects

    def _absorb_decided(self, sender: ProcessId, notice: SlotDecided) -> list[Effect]:
        """Book one unsolicited decided-slot notice; adopt at ``t + 1``.

        The notice may be Byzantine: :meth:`CatchUpTracker.vote` validates
        it like any other claim, and a single sender can never carry a
        batch over the threshold.  Only frontier slots settle; votes for
        slots further ahead wait until the frontier reaches them.
        """
        shard = notice.shard
        if not self._catchup.vote(sender, shard, notice.slot, notice.batch, self._slot):
            return []
        effects = self._advance(shard)
        if effects and not self._recovering:
            effects.extend(self._open(shard))
        return effects


@dataclass
class ShardReport:
    """Outcome of one sharded-service run.

    ``digest`` is the agreed value — per shard, the ordered tuple of
    applied batches — from which ``states`` is reconstructed by replay, so
    the report is identical no matter which engine (in-memory or forked
    processes) produced it.  ``per_shard`` rows fold slots (latency, steps,
    decision kinds, service calls); message totals — ``sends``,
    ``delivers``, ``throughput_msgs_per_s`` — are the run's own counters
    (``result.stats``) and appear in ``aggregate`` only.
    """

    shards: int
    engine: str
    commands: int
    slots: int
    duration: float
    digest: tuple | None
    divergence: bool
    per_shard: list[dict[str, Any]]
    aggregate: dict[str, Any]
    states: dict[int, dict[str, int]] = field(default_factory=dict)
    result: Any = None

    @property
    def throughput(self) -> float:
        """Applied commands per time unit (virtual on sim, wall on net)."""
        return self.commands / self.duration if self.duration else 0.0


class ShardedService:
    """Frontend: run a client stream through the sharded consensus service.

    Args:
        n: replica count.
        t: failure bound (default: the largest ``algorithm`` tolerates).
        shards: shard count.
        max_batch, max_wait: per-shard batch bounds.
        contention: per-slot contention probability.
        skew: key skew of the workload (``uniform`` / ``zipf``).
        zipf_alpha: zipf exponent when ``skew == "zipf"``.
        keyspace: distinct keys in the workload.
        rate: open-loop arrivals per slot tick (``None`` = closed loop).
        faults: fault spec per faulty replica (validated by the
            :class:`~repro.engine.faults.FaultPlane`, as everywhere).
        seed: master seed — engine scheduling, workload and contention
            coins all derive from it.
        algorithm: the consensus algorithm ordering every shard's log
            (any registered :class:`~repro.harness.AlgorithmSpec`, over the
            oracle UC); it sets ``t``'s default, the resilience check and
            the failure model faults are validated against.
        engine: any of the harness engines (``sim``/``sync``/``mc``/``net``).
        uc_step_cost: causal step cost of the oracle UC (feeds the
            per-slot step accounting of the metrics).
        codec: ``"binary"``, the only legal value —
            ``benchmarks/e2e/workloads.py`` passes it, so the keyword stays
            until that stops.
        event_sink: optional extra sink receiving the run's event stream.
        durability: optional :class:`~repro.durable.recovery.
            DurabilityConfig` — every replica persists proposals and
            decisions through a per-node WAL under ``durability.root``,
            and :class:`~repro.engine.faults.CrashRecover` faults restart
            the killed replica from its on-disk state (sim and net
            engines only).
    """

    def __init__(
        self,
        n: int = 7,
        t: int | None = None,
        shards: int = 2,
        max_batch: int = 4,
        max_wait: int = 2,
        contention: float = 0.0,
        skew: str = "uniform",
        zipf_alpha: float = 1.2,
        keyspace: int = 32,
        rate: int | None = None,
        faults: Mapping[ProcessId, Fault] | None = None,
        seed: int = 0,
        algorithm: AlgorithmSpec = dex_freq(),
        engine: str = "sim",
        uc_step_cost: int = 2,
        codec: str = "binary",
        event_sink: EventSink | None = None,
        durability: DurabilityConfig | None = None,
        mesh: Any = None,
    ) -> None:
        if codec != "binary":
            raise ConfigurationError(f"unknown codec {codec!r}; the only codec is 'binary'")
        if not 0.0 <= contention <= 1.0:
            raise ConfigurationError("contention must be in [0, 1]")
        self.algorithm = algorithm
        self.config = SystemConfig(n, algorithm.max_t(n) if t is None else t)
        if not self.config.satisfies(algorithm.required_ratio):
            raise ConfigurationError(
                f"{algorithm.name} requires n > {algorithm.required_ratio}t; "
                f"got n={n}, t={self.config.t}"
            )
        self.shards = shards
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.contention = contention
        self.skew = skew
        self.zipf_alpha = zipf_alpha
        self.keyspace = keyspace
        self.rate = rate
        self.seed = seed
        self.engine = engine
        self.uc_step_cost = uc_step_cost
        self.event_sink = event_sink
        self.durability = durability
        #: optional :class:`~repro.mesh.topology.MeshTopology` — parallel
        #: hub groups on the socket engine; in-memory engines ignore it.
        self.mesh = mesh
        self._plane = FaultPlane(
            self.config,
            faults,
            failure_model=algorithm.failure_model,
            algorithm_name=algorithm.name,
        )

    def _make_node(
        self, pid: ProcessId, arrivals: Sequence[tuple[int, Command]]
    ) -> ShardNode:
        """Build one replica; a fresh :class:`~repro.durable.recovery.
        NodeDurability` per call, so restart factories re-open (and
        replay) the node's on-disk state instead of sharing handles."""
        return ShardNode(
            pid,
            self.config,
            self.shards,
            arrivals,
            instance_factory(self.algorithm, pid, self.config),
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            contention=self.contention,
            seed=self.seed,
            durability=(
                self.durability.node(pid) if self.durability is not None else None
            ),
        )

    def deployment(
        self, arrivals: Sequence[tuple[int, Command]], sink: EventSink | None
    ) -> Deployment:
        """The engine-agnostic deployment: one :class:`ShardNode` per
        replica (faulty ones wrapped by the plane) plus the shared oracle.
        Replicas under a :class:`~repro.engine.faults.CrashRecover` fault
        with a ``restart_after`` get a restart plan and are *not* counted
        faulty — the engines await their (post-recovery) decisions."""
        services = {
            SERVICE_NAME: OracleService(self.config, step_cost=self.uc_step_cost)
        }
        protocols: dict[ProcessId, Protocol] = {}
        for pid in self.config.processes:
            make_honest = lambda value, pid=pid: self._make_node(  # noqa: E731
                pid, arrivals
            )
            protocols[pid] = self._plane.build(pid, make_honest, None, self.algorithm)
        restarts = restart_plans(
            self._plane,
            lambda pid: lambda: self._make_node(pid, arrivals),
        )
        n = self.config.n
        heartbeats = self.shards * (1 + max((tick for tick, _ in arrivals), default=0))
        self._plane.announce(sink)
        return Deployment(
            config=self.config,
            protocols=protocols,
            services=services,
            faulty=frozenset(self._plane.faults) - self._plane.recovering(),
            seed=self.seed,
            event_sink=sink,
            # the livelock valve, sized from the stream: a slot per command and
            # per shard and tick, each twice a healthy slot's n(n + 2) broadcasts
            max_events=max(DEFAULT_MAX_EVENTS, 2 * n * n * (n + 2) * (len(arrivals) + heartbeats)),
            restarts=restarts,
            mesh=self.mesh,
            shards=self.shards,
        )

    def run(self, count: int = 16, timeout: float = 30.0) -> ShardReport:
        """Generate the workload, run it on the configured engine, and
        assemble the per-shard/aggregate report."""
        arrivals = shard_workload(
            count,
            keyspace=self.keyspace,
            skew=self.skew,
            zipf_alpha=self.zipf_alpha,
            rate=self.rate,
            seed=self.seed,
        )
        return self.run_stream(arrivals, timeout=timeout)

    def run_stream(
        self, arrivals: Sequence[tuple[int, Command]], timeout: float = 30.0
    ) -> ShardReport:
        """Run an explicit client stream (``[(arrival_slot, command)]``)
        through the service — the entry point the admission-controlled
        frontend (:mod:`repro.frontend`) feeds with whatever the queues
        accepted, as opposed to :meth:`run`'s self-generated workload."""
        shard_sink = ShardStreamSink(
            self.shards,
            uc_step_cost=self.uc_step_cost,
            hubs=getattr(self.mesh, "hubs", 1) if self.mesh is not None else 1,
            steps_before_uc=self.algorithm.steps_before_uc,
        )
        sink = combine(shard_sink, self.event_sink)
        result = self.deployment(arrivals, sink).run(self.engine, timeout=timeout)
        divergence = (
            not result.agreement_holds()
            or not result.correct_decisions
            or bool(result.undecided_correct)
        )
        digest = result.decided_value if result.correct_decisions else None
        duration = result.end_time
        commands_by_shard, slots, states = None, 0, {}
        if digest is not None and not divergence:
            commands_by_shard = {}
            for shard, batches in digest:
                store = KeyValueStore()
                for batch in batches:
                    for command in batch:
                        store.apply(command)
                states[shard] = store.data
                commands_by_shard[shard] = sum(len(batch) for batch in batches)
                slots += len(batches)
        per_shard, aggregate = shard_sink.report(commands_by_shard, duration, result.stats)
        return ShardReport(
            shards=self.shards,
            engine=self.engine,
            commands=sum(commands_by_shard.values()) if commands_by_shard else 0,
            slots=slots,
            duration=duration,
            digest=digest,
            divergence=divergence,
            per_shard=per_shard,
            aggregate=aggregate,
            states=states,
            result=result,
        )
