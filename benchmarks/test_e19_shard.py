"""E19 — sharded-service throughput scaling with shard count.

The heavy-traffic extension of E5: the keyspace is split into shards,
each shard orders its own batched log through concurrent DEX instances,
and everything multiplexes over one engine.  Reported is aggregate
applied-command throughput (commands per simulated time unit) as the
shard count grows, for a uniform and a zipf-skewed key distribution.

Expected shape: on the simulator, throughput grows with shard count —
shards drain their logs concurrently, so wall (virtual) time to apply a
fixed command stream drops.  Zipf skew scales worse than uniform: hot
keys concentrate traffic on few shards, so extra shards sit idle.  The
one-step rate stays at 1.0 in the uncontended sweep (every slot's batch
is unanimously proposed) and degrades once contention is injected.

This table also carries what E9 (the retired pipelined log) claimed:
running more consensus instances at once raises throughput, and one-step
decisions survive it — instances do not interfere.  The served system's
concurrency axis is shards, not an in-flight window.
"""

from _util import write_report

from repro.metrics.report import format_table
from repro.shard import ShardedService

N = 7
COUNT = 32
SHARDS = (1, 2, 4)


def sweep():
    rows = []
    throughput = {}
    for skew in ("uniform", "zipf"):
        for shards in SHARDS:
            report = ShardedService(
                n=N, shards=shards, skew=skew, contention=0.0, seed=19
            ).run(count=COUNT)
            assert not report.divergence
            assert report.commands == COUNT
            throughput[(skew, shards)] = report.throughput
            rows.append(
                {
                    "skew": skew,
                    "shards": shards,
                    "slots": report.slots,
                    "throughput (cmds/t)": round(report.throughput, 3),
                    "one-step rate": round(report.aggregate["one_step_frac"], 3),
                    "p99 slot latency": round(
                        report.aggregate["p99_decision_latency_s"], 3
                    ),
                }
            )
    return rows, throughput


def contended_row():
    report = ShardedService(
        n=N, shards=4, skew="uniform", contention=0.5, seed=20
    ).run(count=COUNT)
    assert not report.divergence
    return {
        "skew": "uniform (contention 0.5)",
        "shards": 4,
        "slots": report.slots,
        "throughput (cmds/t)": round(report.throughput, 3),
        "one-step rate": round(report.aggregate["one_step_frac"], 3),
        "p99 slot latency": round(report.aggregate["p99_decision_latency_s"], 3),
    }


def test_e19_shard_throughput_scaling(benchmark):
    rows, throughput = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows.append(contended_row())
    write_report(
        "e19_shard",
        format_table(
            rows,
            title=(
                f"E19: sharded-service throughput vs shard count "
                f"(n={N}, {COUNT} commands, sim engine)"
            ),
        ),
    )
    # Aggregate throughput rises strictly with every added shard on the
    # simulator: concurrent logs overlap where one log would serialize.
    for skew in ("uniform", "zipf"):
        rates = [throughput[(skew, shards)] for shards in SHARDS]
        assert all(a < b for a, b in zip(rates, rates[1:])), (skew, rates)
    # Hot keys waste shards: uniform must beat zipf at the widest sweep.
    assert throughput[("uniform", 4)] > throughput[("zipf", 4)]
    # Uncontended slots all take the expedited one-step path.
    uncontended = [row for row in rows if row["skew"] in ("uniform", "zipf")]
    assert all(row["one-step rate"] == 1.0 for row in uncontended)
