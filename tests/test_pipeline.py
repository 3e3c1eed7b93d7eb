"""Tests for pipelined repeated consensus (the one-shard multiplexer replica)."""

import pytest

from repro.apps.pipeline import (
    SLOT_DECIDED_TAG,
    PipelinedReplica,
    run_pipelined,
)
from repro.errors import ConfigurationError
from repro.shard import dex_shard_factory
from repro.types import DecisionKind, SystemConfig


def unanimous_table(n, slots, prefix="c"):
    return {pid: [f"{prefix}{s}" for s in range(slots)] for pid in range(n)}


class TestPipelinedReplica:
    def test_window_validation(self):
        config = SystemConfig(7, 1)
        with pytest.raises(ConfigurationError):
            PipelinedReplica(0, config, ["a"], dex_shard_factory(0, config), window=0)

    def test_requires_proposals(self):
        config = SystemConfig(7, 1)
        with pytest.raises(ConfigurationError):
            PipelinedReplica(0, config, [], dex_shard_factory(0, config))

    def test_start_opens_window(self):
        config = SystemConfig(7, 1)
        replica = PipelinedReplica(
            0, config, ["a", "b", "c", "d"], dex_shard_factory(0, config), window=2
        )
        replica.on_start()
        assert replica._next_slot == 2  # only the window is in flight


class TestRunPipelined:
    def test_unanimous_log_identical(self):
        result, logs = run_pipelined(unanimous_table(7, 5), window=3, seed=1)
        assert len(set(logs.values())) == 1
        assert logs[0] == ("c0", "c1", "c2", "c3", "c4")

    def test_contended_slot_resolved_by_fallback(self):
        table = unanimous_table(7, 6)
        for pid in range(3):
            table[pid][3] = "rival"
        result, logs = run_pipelined(table, window=3, seed=2)
        assert len(set(logs.values())) == 1
        log = logs[0]
        assert log[3] in ("c3", "rival")
        assert log[:3] == ("c0", "c1", "c2")

    def test_slot_decisions_reported_per_replica(self):
        result, logs = run_pipelined(unanimous_table(7, 4), window=2, seed=3)
        for pid in range(7):
            slots = sorted(
                d.value[0] for d in result.outputs[pid] if d.tag == SLOT_DECIDED_TAG
            )
            assert slots == [0, 1, 2, 3]

    def test_unanimous_slots_decide_one_step(self):
        result, logs = run_pipelined(unanimous_table(7, 4), window=4, seed=4)
        kinds = {
            d.value[2]
            for pid in range(7)
            for d in result.outputs[pid]
            if d.tag == SLOT_DECIDED_TAG
        }
        assert kinds == {DecisionKind.ONE_STEP}

    def test_window_one_is_sequential(self):
        result, logs = run_pipelined(unanimous_table(7, 3), window=1, seed=5)
        assert logs[0] == ("c0", "c1", "c2")

    def test_pipelining_reduces_makespan(self):
        table = unanimous_table(7, 8)
        sequential, _ = run_pipelined(dict(table), window=1, seed=6)
        pipelined, _ = run_pipelined(dict(table), window=8, seed=6)
        assert pipelined.end_time < sequential.end_time

    def test_mismatched_slot_counts_rejected(self):
        table = unanimous_table(7, 3)
        table[0] = table[0][:2]
        with pytest.raises(ConfigurationError):
            run_pipelined(table)

    def test_sequence_input_accepted(self):
        proposals = [[f"c{s}" for s in range(3)] for _ in range(7)]
        result, logs = run_pipelined(proposals, seed=7)
        assert logs[0] == ("c0", "c1", "c2")

    def test_determinism(self):
        table = unanimous_table(7, 4)
        for pid in range(2):
            table[pid][1] = "rival"
        a, logs_a = run_pipelined(dict(table), seed=8)
        b, logs_b = run_pipelined(dict(table), seed=8)
        assert logs_a == logs_b
        assert a.stats.messages_sent == b.stats.messages_sent


class TestReplyPathRegression:
    """Per-request reply paths: a slot's UC announcement must reach that
    slot's adapter even when the caller has since proposed other slots
    (the bug that motivated carrying reply_path on ServiceReply)."""

    def test_interleaved_slots_with_fallback(self):
        table = unanimous_table(7, 5)
        # several contended slots in flight simultaneously
        for pid in range(3):
            table[pid][1] = "r1"
            table[pid][3] = "r3"
        result, logs = run_pipelined(table, window=5, seed=9)
        assert len(set(logs.values())) == 1
        assert len(logs[0]) == 5


class TestPipelineOnAsyncio:
    """The multi-level reply-path routing must also work on the asyncio
    runtime (same protocols, real event loop)."""

    def test_pipelined_log_on_event_loop(self):
        from repro.apps.pipeline import PipelinedReplica
        from repro.runtime.asyncio_runner import AsyncioRunner
        from repro.types import SystemConfig
        from repro.underlying.oracle import OracleService

        n, slots = 7, 4
        config = SystemConfig(n, 1)
        table = unanimous_table(n, slots)
        for pid in range(3):
            table[pid][2] = "rival"  # exercise the UC path mid-log
        protocols = {
            pid: PipelinedReplica(
                pid, config, table[pid], dex_shard_factory(pid, config), window=3
            )
            for pid in config.processes
        }
        runner = AsyncioRunner(
            config,
            protocols,
            services={"oracle-uc": OracleService(config)},
            seed=5,
        )
        result = runner.run_sync(timeout=30)
        assert not result.timed_out
        assert result.agreement_holds()
        logs = {p: d.value for p, d in result.correct_decisions.items()}
        assert len(set(logs.values())) == 1
        assert len(logs[0]) == slots
