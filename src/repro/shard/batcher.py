"""Per-shard proposal batching: size- and time-bounded.

Each shard of the replicated log owns one :class:`ShardBatcher`; a
consensus slot decides a whole *batch* of client commands, so the ordering
cost of one instance is amortized over up to ``max_batch`` commands.

The two bounds:

* **size** — a batch closes as soon as ``max_batch`` commands are queued;
* **time** — a partial batch closes after waiting ``max_wait`` slots, so a
  trickle of traffic is never starved behind the size bound.  Time is
  measured in slot numbers (the shard's logical clock): the service opens
  heartbeat slots while a partial batch ages, which both advances the
  clock and keeps the replicas' views aligned.

Commands leave the queue only when *decided* (:meth:`acknowledge`): a
contended slot decides one of two competing batches, and the losers stay
queued to be re-proposed in later slots.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

__all__ = ["ShardBatcher"]

#: A batch proposal: an ordered tuple of commands (hashable, so consensus
#: can decide it like any other value).
Batch = tuple


class ShardBatcher:
    """One shard's pending-command queue with batch formation rules.

    Args:
        max_batch: size bound — a full batch closes immediately.
        max_wait: time bound in slots — a partial batch closes once it has
            waited this many slots (0 = never wait, always propose what is
            there).
    """

    def __init__(self, max_batch: int = 4, max_wait: int = 2) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self._queue: list[Hashable] = []
        self._waiting_since: int | None = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> tuple:
        """The queued commands, in arrival order (read-only view)."""
        return tuple(self._queue)

    def submit(self, command: Hashable, now: int) -> None:
        """Queue one client command at slot-time ``now``."""
        if not self._queue:
            self._waiting_since = now
        self._queue.append(command)

    def ready(self, now: int) -> bool:
        """Whether a batch should close at slot-time ``now``."""
        if len(self._queue) >= self.max_batch:
            return True
        if not self._queue:
            return False
        assert self._waiting_since is not None
        return now - self._waiting_since >= self.max_wait

    def head_batch(self) -> Batch:
        """The batch this replica proposes: the queue head."""
        return tuple(self._queue[: self.max_batch])

    def rival_batch(self) -> Batch:
        """The competing batch of a contended slot: shifted by one command,
        modelling replicas that saw a concurrent submission first."""
        if len(self._queue) < 2:
            return self.head_batch()
        return tuple(self._queue[1 : self.max_batch + 1])

    def acknowledge(self, decided: Iterable[Hashable] | Sequence, now: int) -> None:
        """Remove the decided commands; losers stay queued for re-proposal.

        Args:
            decided: the batch consensus decided (possibly a rival batch,
                possibly containing foreign commands this replica never
                queued — those are ignored).
            now: the slot-time the decision landed; restarts the wait clock
                of whatever remains queued — but only when the decision
                actually consumed commands.  An empty (heartbeat) decision
                leaves the clock running: heartbeat slots exist to *age*
                a partial batch toward the time bound, so resetting on
                them would starve a trickle of traffic forever.
        """
        remaining = list(self._queue)
        for command in decided:
            try:
                remaining.remove(command)
            except ValueError:
                pass  # decided but never queued here (Byzantine injection)
        if not remaining:
            self._waiting_since = None
        elif len(remaining) != len(self._queue):
            self._waiting_since = now
        self._queue = remaining
