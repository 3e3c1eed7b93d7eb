"""Tests for the pipelined log: the sharded service with several slots in
flight at once — one per shard, one command a slot — so contended slots
fall back to the UC while their neighbours decide."""

import pytest

from repro.shard import ShardedService, shard_workload


def pipelined_log(**kwargs):
    """Three slots in flight: three shards, one command a slot."""
    return ShardedService(n=7, shards=3, max_batch=1, **kwargs)


def applied(report):
    return sorted(
        command for _, batches in report.digest for batch in batches for command in batch
    )


def workload(count, seed):
    return sorted(command for _, command in shard_workload(count, seed=seed))


class TestRunPipelined:
    def test_unanimous_log_identical(self):
        report = pipelined_log(contention=0.0, seed=1).run(count=5)
        assert not report.divergence and report.digest is not None
        assert report.commands == report.slots == 5
        assert applied(report) == workload(5, seed=1)

    def test_contended_slot_resolved_by_fallback(self):
        report = pipelined_log(contention=1.0, seed=2).run(count=6)
        assert not report.divergence
        assert applied(report) == workload(6, seed=2)
        assert report.aggregate["underlying_frac"] > 0

    def test_unanimous_slots_decide_one_step(self):
        report = pipelined_log(contention=0.0, seed=4).run(count=4)
        assert report.slots == 4
        assert report.aggregate["one_step_frac"] == 1.0
        assert all(row["one_step_frac"] == 1.0 for row in report.per_shard)

    def test_determinism(self):
        a, b = (pipelined_log(contention=0.5, seed=8).run(count=8) for _ in range(2))
        assert a.digest == b.digest
        assert a.result.stats.messages_sent == b.result.stats.messages_sent


class TestReplyPathRegression:
    """Per-request reply paths: a slot's UC announcement must reach that
    slot's instance even when the replica has since proposed other slots
    (the bug that motivated carrying reply_path on ServiceReply)."""

    def test_interleaved_slots_with_fallback(self):
        report = pipelined_log(contention=0.5, seed=9).run(count=12)
        assert not report.divergence
        assert applied(report) == workload(12, seed=9)
        # several shards fell back, so their UC slots were in flight together
        assert sum(row["underlying_frac"] > 0 for row in report.per_shard) >= 2


class TestPipelineOnAsyncio:
    """The multi-level reply-path routing must also work where the replicas
    are real processes (the socket engine; the class keeps the name of the
    retired asyncio runtime it first ran on).  Only invariants are asserted:
    which rival wins a contended slot is a race on sockets."""

    @pytest.mark.net
    def test_pipelined_log_on_event_loop(self):
        report = pipelined_log(contention=0.5, seed=5, engine="net").run(count=6)
        assert not report.divergence and report.commands == 6
        assert applied(report) == workload(6, seed=5)  # each command applied once
        # shard 2's first slot is a 4-3 split of two distinct batches (the
        # seed's coins, not the schedule, decide that): no view decides it
        # fast, so the UC path runs mid-log on every schedule
        assert report.aggregate["underlying_frac"] > 0
