"""The client-facing submit API over the sharded consensus service.

This is the layer the literature's client-centric framing asks for
(hBFT's client-side speculation, the two-step lower-bound papers'
client-observed commit latency): clients :meth:`~Frontend.submit`
keyed operations and get a :class:`DecidedFuture`; the frontend routes
each command through :func:`~repro.shard.router.shard_of` into that
shard's :class:`~repro.frontend.admission.AdmissionQueue`, advances a
slot-aligned tick clock as load arrives, and finally pushes everything
the queues accepted through :meth:`ShardedService.run_stream
<repro.shard.service.ShardedService.run_stream>`.

Latency is *client-observed*: submit tick to decided slot, in slot
ticks — it includes queueing delay, which is the whole point.  The
consensus-only p50/p99 from :class:`~repro.shard.metrics.ShardStreamSink`
ride along in the embedded :class:`~repro.shard.service.ShardReport`, so
E22 can show both curves (queueing blows up at the knee; consensus
latency does not).

Typed ``frontend.submit`` / ``frontend.reject`` / ``frontend.reply``
events flow through the service's event sink (pid :data:`CLIENT`),
joining the same stream the engines emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..engine.events import EventSink, LogEvent
from ..errors import ConfigurationError, ReproError
from ..shard.router import shard_of
from ..shard.service import ShardedService, ShardReport
from ..types import percentile
from .admission import AdmissionQueue, Rejected, ShedStats

__all__ = [
    "CLIENT",
    "SubmitRejected",
    "DecidedFuture",
    "FrontendReport",
    "Frontend",
]

#: The pseudo-pid frontend events carry (clients are not replicas).
CLIENT = -1


class SubmitRejected(ReproError):
    """Raised by :meth:`DecidedFuture.result` when the submission was
    shed or deadline-dropped instead of decided."""

    def __init__(self, rejection: Rejected) -> None:
        self.rejection = rejection
        super().__init__(
            f"submission rejected ({rejection.reason}) by shard "
            f"{rejection.shard} at queue depth {rejection.depth}"
        )


class DecidedFuture:
    """The client's handle on one submission.

    States: *pending* (queued or in flight) → *decided* (the command is
    in the agreed digest at ``(shard, slot)``) or *rejected* (shed at
    admission or deadline-dropped; see :attr:`rejection`).
    ``latency`` is client-observed, in slot ticks: decided slot minus
    submit tick.
    """

    __slots__ = ("command", "key", "shard", "submit_tick", "slot", "rejection")

    def __init__(self, command: tuple, shard: int, submit_tick: int) -> None:
        self.command = command
        self.key = command[1]
        self.shard = shard
        self.submit_tick = submit_tick
        self.slot: int | None = None
        self.rejection: Rejected | None = None

    @property
    def pending(self) -> bool:
        return self.slot is None and self.rejection is None

    @property
    def decided(self) -> bool:
        return self.slot is not None

    @property
    def latency(self) -> int | None:
        """Client-observed latency in slot ticks (``None`` until decided)."""
        if self.slot is None:
            return None
        return max(self.slot - self.submit_tick, 0)

    def result(self) -> tuple[int, int]:
        """``(shard, slot)`` of the decided command.

        Raises :class:`SubmitRejected` if the submission was rejected and
        :class:`~repro.errors.ReproError` if the run has not resolved it.
        """
        if self.rejection is not None:
            raise SubmitRejected(self.rejection)
        if self.slot is None:
            raise ReproError("submission still pending: run the frontend first")
        return self.shard, self.slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.rejection is not None:
            state = f"rejected:{self.rejection.reason}"
        elif self.slot is not None:
            state = f"decided@s{self.shard}.{self.slot}"
        else:
            state = "pending"
        return f"DecidedFuture({self.command!r}, {state})"


@dataclass
class FrontendReport:
    """Outcome of one admission-controlled run.

    ``latencies`` holds one client-observed latency (slot ticks) per
    decided submission; ``per_shard`` one dict per shard with the queue's
    :class:`~repro.frontend.admission.ShedStats` counters; ``shard`` is
    the embedded consensus-side :class:`~repro.shard.service.ShardReport`.
    """

    policy: str
    queue_bound: int
    submitted: int
    accepted: int
    shed: int
    dropped: int
    decided: int
    ticks: int
    latencies: list[int] = field(default_factory=list)
    per_shard: list[dict[str, Any]] = field(default_factory=list)
    shard: ShardReport | None = None

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions rejected (at the door or by deadline)."""
        if not self.submitted:
            return 0.0
        return (self.shed + self.dropped) / self.submitted

    @property
    def makespan_slots(self) -> int:
        """Longest shard log in the agreed digest (slots to drain it all)."""
        if self.shard is None or self.shard.digest is None:
            return 0
        return max(
            (len(batches) for _, batches in self.shard.digest), default=0
        )

    @property
    def throughput_cmds_per_slot(self) -> float:
        """Decided commands per slot of makespan — the plateau metric."""
        makespan = self.makespan_slots
        return self.decided / makespan if makespan else 0.0

    def latency_percentile(self, q: float) -> float | None:
        """The ``q``-quantile of client-observed latencies (slot ticks);
        ``None`` when nothing was decided (e.g. everything shed)."""
        return percentile(self.latencies, q)

    def summary(self) -> dict[str, Any]:
        """The headline numbers as one flat dict (for bench rows)."""
        p50 = self.latency_percentile(0.50)
        p99 = self.latency_percentile(0.99)
        return {
            "policy": self.policy,
            "queue_bound": self.queue_bound,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "shed": self.shed,
            "dropped": self.dropped,
            "decided": self.decided,
            "shed_rate": round(self.shed_rate, 4),
            "ticks": self.ticks,
            "makespan_slots": self.makespan_slots,
            "throughput_cmds_per_slot": round(self.throughput_cmds_per_slot, 3),
            "p50_client_latency_slots": p50,
            "p99_client_latency_slots": p99,
            "high_water": max(
                (row["high_water"] for row in self.per_shard), default=0
            ),
        }


class Frontend:
    """Admission-controlled submit frontend around a sharded service.

    Args:
        service: the :class:`~repro.shard.service.ShardedService` to feed
            (its ``rate`` is ignored — arrival pacing is the frontend's).
        queue_bound: per-shard admission-queue depth.
        policy: admission policy (see
            :data:`~repro.frontend.admission.POLICIES`).
        deadline: queue-wait bound in ticks for the ``"deadline"`` policy.

    The tick clock is slot-aligned: each :meth:`tick` drains at most
    ``service.max_batch`` commands per shard — the shard's per-slot batch
    capacity — into the accepted stream with the *dequeue* tick as the
    arrival slot, so queueing delay shows up as later arrival, exactly as
    it would for a real client waiting at a full server.
    """

    def __init__(
        self,
        service: ShardedService,
        queue_bound: int = 16,
        policy: str = "shed",
        deadline: int | None = None,
    ) -> None:
        self.service = service
        self.queue_bound = queue_bound
        self.policy = policy
        self.queues = {
            s: AdmissionQueue(s, queue_bound, policy, deadline)
            for s in range(service.shards)
        }
        self.now = 0
        self._seq = 0
        self._futures: dict[tuple, DecidedFuture] = {}
        self._accepted: list[tuple[int, tuple]] = []
        self._ran = False

    # -- events ------------------------------------------------------------------------

    def _emit(self, event: str, **data: Any) -> None:
        sink: EventSink | None = self.service.event_sink
        if sink is not None:
            sink.emit(LogEvent(float(self.now), CLIENT, event, data))

    # -- client side -------------------------------------------------------------------

    def submit(self, key: str, op: int | None = None) -> DecidedFuture:
        """Offer one ``set`` operation on ``key`` at the current tick.

        ``op`` defaults to a unique sequence number (commands must be
        distinct to be trackable through the agreed digest).  The returned
        future is resolved immediately on rejection, else by :meth:`run`.
        """
        if self._ran:
            raise ReproError("frontend already ran; build a fresh one")
        value = self._seq if op is None else op
        self._seq += 1
        command = ("set", key, value)
        if command in self._futures:
            raise ConfigurationError(f"duplicate command {command!r}")
        shard = shard_of(key, self.service.shards)
        future = DecidedFuture(command, shard, self.now)
        self._futures[command] = future
        self._emit("frontend.submit", key=key, shard=shard)
        rejection = self.queues[shard].offer(future, self.now)
        if rejection is not None:
            future.rejection = rejection
            self._emit(
                "frontend.reject",
                key=key,
                shard=shard,
                reason=rejection.reason,
                depth=rejection.depth,
            )
        return future

    # -- clock -------------------------------------------------------------------------

    def tick(self) -> int:
        """Advance one slot tick: each shard's queue serves up to the
        shard batch capacity into the accepted stream.  Returns the number
        of commands accepted this tick."""
        accepted = 0
        for shard in range(self.service.shards):
            queue = self.queues[shard]
            for future, _, rejection in queue.drain(self.now, self.service.max_batch):
                if rejection is not None:
                    future.rejection = rejection
                    self._emit(
                        "frontend.reject",
                        key=future.key,
                        shard=shard,
                        reason=rejection.reason,
                        depth=rejection.depth,
                    )
                    continue
                self._accepted.append((self.now, future.command))
                accepted += 1
        self.now += 1
        return accepted

    def drain(self) -> None:
        """Tick until every queue (and block-policy backlog) is empty."""
        while any(queue.pending for queue in self.queues.values()):
            self.tick()

    # -- service side ------------------------------------------------------------------

    def run(self, timeout: float = 30.0) -> FrontendReport:
        """Drain the queues, run the accepted stream through consensus,
        resolve every future, and assemble the report."""
        if self._ran:
            raise ReproError("frontend already ran; build a fresh one")
        self._ran = True
        self.drain()
        submit_ticks = self.now
        report = self.service.run_stream(list(self._accepted), timeout=timeout)
        latencies: list[int] = []
        decided = 0
        if report.digest is not None and not report.divergence:
            for shard, batches in report.digest:
                for slot, batch in enumerate(batches):
                    for command in batch:
                        future = self._futures.get(command)
                        if future is None or not future.pending:
                            continue
                        future.slot = slot
                        decided += 1
                        latencies.append(future.latency)
                        self._emit(
                            "frontend.reply",
                            key=future.key,
                            shard=shard,
                            slot=slot,
                            latency=future.latency,
                        )
        stats = {s: self.queues[s].stats() for s in range(self.service.shards)}
        return FrontendReport(
            policy=self.policy,
            queue_bound=self.queue_bound,
            submitted=sum(st.submitted for st in stats.values()),
            accepted=len(self._accepted),
            shed=sum(st.shed for st in stats.values()),
            dropped=sum(st.dropped for st in stats.values()),
            decided=decided,
            ticks=submit_ticks,
            latencies=latencies,
            per_shard=[
                {"shard": s, **_stats_row(stats[s])}
                for s in range(self.service.shards)
            ],
            shard=report,
        )


def _stats_row(stats: ShedStats) -> dict[str, Any]:
    return {
        "submitted": stats.submitted,
        "shed": stats.shed,
        "dequeued": stats.dequeued,
        "dropped": stats.dropped,
        "pending": stats.pending,
        "high_water": stats.high_water,
        "shed_rate": round(stats.shed_rate, 4),
    }
