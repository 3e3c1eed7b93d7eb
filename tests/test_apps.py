"""Tests for the applications: the §1.1 replicated state machine — the
sharded service run as one sequential log (its algorithm cases are in
``tests/test_shard.py``) — and atomic commit."""

import pytest

from repro.apps.atomic_commit import ABORT, COMMIT, AtomicCommitCoordinator
from repro.shard import ShardedService, shard_workload


def replicated_state_machine(**kwargs):
    """The §1.1 replicated log: one shard, one command a slot."""
    return ShardedService(shards=1, max_batch=1, **kwargs)


def applied(report):
    return [command for _, batches in report.digest for batch in batches for command in batch]


class TestCommandStream:
    def test_deterministic(self):
        assert shard_workload(5, seed=1) == shard_workload(5, seed=1)
        runs = [replicated_state_machine(contention=0.5, seed=1).run(count=5) for _ in range(2)]
        assert applied(runs[0]) == applied(runs[1])


class TestReplicatedStateMachine:
    def test_low_contention_orders_everything(self):
        report = replicated_state_machine(contention=0.0, seed=1).run(count=6)
        assert report.slots == 6
        assert not report.divergence
        assert sorted(applied(report)) == sorted(cmd for _, cmd in shard_workload(6, seed=1))

    def test_zero_contention_is_all_one_step(self):
        report = replicated_state_machine(contention=0.0, seed=2).run(count=4)
        assert report.aggregate["one_step_frac"] == 1.0
        assert report.aggregate["mean_max_step"] == 1.0


class TestAtomicCommit:
    def test_all_yes_commits_one_step(self):
        coordinator = AtomicCommitCoordinator(n=11, vote_yes_probability=1.0, seed=1)
        report = coordinator.run(5)
        assert report.committed == 5
        assert report.one_step_commit_rate == 1.0
        assert report.overridden_aborts == 0

    def test_all_no_aborts(self):
        coordinator = AtomicCommitCoordinator(n=11, vote_yes_probability=0.0, seed=2)
        report = coordinator.run(5)
        assert report.aborted == 5
        assert report.commit_rate == 0.0

    def test_mixed_votes_terminate_and_count(self):
        coordinator = AtomicCommitCoordinator(n=11, vote_yes_probability=0.7, seed=3)
        report = coordinator.run(10)
        assert report.committed + report.aborted == 10
        assert report.aggregate.runs == 10

    def test_overridden_aborts_tracked(self):
        # with one abort vote among 11, consensus still commits (privileged
        # value outweighs), and the report flags the override
        coordinator = AtomicCommitCoordinator(n=11, vote_yes_probability=0.93, seed=4)
        report = coordinator.run(20)
        if report.overridden_aborts:
            assert report.committed >= report.overridden_aborts

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            AtomicCommitCoordinator(n=11, vote_yes_probability=1.2)

    def test_deterministic(self):
        a = AtomicCommitCoordinator(n=11, vote_yes_probability=0.8, seed=5).run(5)
        b = AtomicCommitCoordinator(n=11, vote_yes_probability=0.8, seed=5).run(5)
        assert a.committed == b.committed
        assert a.aggregate.max_steps == b.aggregate.max_steps
