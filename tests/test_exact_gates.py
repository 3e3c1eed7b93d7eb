"""Exact gates: what a seeded simulator run of the sharded service counts.

The benchmark's ``sim_core`` workload runs this shape — ``n=7, t=1``, 4
shards, ``max_batch=4``, contention 0.3 over 32 keys, every command
arriving at once — on the virtual clock, where every count repeats to the
unit for a seed.  A change that moves one of these numbers changed the
protocol's message economy, the batching or the durable log, and has to say
so: these are pinned at the values the code produced before the change that
added them, not derived.  The model checker's DEX smoke row is pinned the
same way: the number of states it explores moves with the protocol's state
space and nothing else.
"""

import os
import random
import zlib

from repro.durable.recovery import DurabilityConfig
from repro.durable.wal import ApplyRecord, scan_records
from repro.mc.suite import run_check, suite_checks
from repro.shard.service import ShardedService

SEED, COMMANDS, N = 1, 64, 7


def _run(root):
    rng = random.Random(SEED)
    arrivals = [(0, ("set", f"k{rng.randrange(32)}", op)) for op in range(COMMANDS)]
    service = ShardedService(
        n=N,
        shards=4,
        max_batch=4,
        contention=0.3,
        keyspace=32,
        seed=SEED,
        durability=DurabilityConfig(root, snapshot_every=0),
    )
    return service.run_stream(arrivals)


def test_sim_core_shape_counts_are_exact(tmp_path):
    report = _run(str(tmp_path))
    stats = report.result.stats
    assert not report.divergence and report.commands == COMMANDS
    assert (stats.messages_sent, stats.messages_delivered, report.slots) == (8330, 8215, 19)
    # One ApplyRecord per settled slot per replica, and nothing else.
    logs = [scan_records(str(tmp_path / node / "wal.log")).records for node in os.listdir(tmp_path)]
    assert len(logs) == N
    assert [len(records) for records in logs] == [report.slots] * N
    assert {type(record) for records in logs for record in records} == {ApplyRecord}


def test_sim_core_shape_applied_log_is_exact(tmp_path):
    """The applied log itself, on a run where every decision path is taken:
    a quarter of the slot decisions come from the underlying consensus."""
    report = _run(str(tmp_path))
    aggregate = report.aggregate
    assert (
        aggregate["one_step_frac"],
        aggregate["two_step_frac"],
        aggregate["underlying_frac"],
    ) == (0.684, 0.053, 0.263)
    assert zlib.crc32(repr(report.digest).encode()) == 2248730725


def test_dex_freq_n7_smoke_check_is_exact():
    """``repro check --smoke``'s DEX row: the states the model checker
    explores per Byzantine variant (the last one capped), independent of
    ``PYTHONHASHSEED``."""
    (spec,) = [check for check in suite_checks(smoke=True) if check.name == "dex-freq-n7"]
    report = run_check(spec)
    assert report.ok
    assert [(v["states"], v["complete"]) for v in report.variants] == [
        (858, True),
        (981, True),
        (1381, True),
        (3001, False),
    ]
    assert report.states == 6221
