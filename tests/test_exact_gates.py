"""Exact gates: what a seeded simulator run of the sharded service counts.

The benchmark's ``sim_core`` workload runs this shape — ``n=7, t=1``, 4
shards, ``max_batch=4``, contention 0.3 over 32 keys, every command
arriving at once — on the virtual clock, where every count repeats to the
unit for a seed.  A change that moves one of these numbers changed the
protocol's message economy, the batching or the durable log, and has to say
so: these are pinned at the values the code produced before the change that
added them, not derived.
"""

import os
import random

from repro.durable.recovery import DurabilityConfig
from repro.durable.wal import ApplyRecord, scan_records
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
