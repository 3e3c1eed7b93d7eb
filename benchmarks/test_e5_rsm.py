"""E5 — replicated state machine ordering latency vs client contention.

The paper's §1.1 motivation made measurable on the log the repo serves:
the sharded service with one shard and one command a slot
(``ShardedService(shards=1, max_batch=1)``) orders a command stream through
each algorithm — one slot in flight, losers re-proposed.  Reported per
contention level, in service units: the mean per-slot ordering latency
(slowest replica's decision steps), the share of decisions taken in one
step, messages per slot and oracle-UC calls per slot.  Expected shape:
DEX ≈ 1 step at the "no contention" common case, degrading gracefully;
the two-step baseline flat at 2; DEX keeps its advantage while contention
stays below the condition boundary.
"""

from _util import write_report

from repro.harness import Silent, bosco_weak, dex_freq, twostep
from repro.metrics.report import format_table
from repro.shard import ShardedService

N = 7
SLOTS = 12
CONTENTION = (0.0, 0.2, 0.5, 0.9)


def row(label, contention, report):
    assert not report.divergence
    return {
        "contention": contention,
        "algorithm": label,
        "slots": report.slots,
        "mean slot steps": round(report.aggregate["mean_max_step"], 3),
        "one-step share": report.aggregate["one_step_frac"],
        "messages/slot": round(report.aggregate["sends"] / report.slots, 1),
        # the oracle UC is a service, not messages: its calls are counted apart
        "UC calls/slot": round(report.aggregate["service_calls"] / report.slots, 2),
    }


def log_of(spec, contention, seed, faults=None):
    return ShardedService(
        n=N,
        shards=1,
        max_batch=1,
        algorithm=spec,
        contention=contention,
        faults=faults,
        seed=seed,
    ).run(count=SLOTS)


def sweep():
    return [
        row(spec.name, p, log_of(spec, p, seed=int(p * 100)))
        for p in CONTENTION
        for spec in (dex_freq(), bosco_weak(), twostep())
    ]


def faulty_replica_row():
    report = log_of(dex_freq(), 0.2, seed=5, faults={6: Silent()})
    return row("dex-freq (+1 silent replica)", 0.2, report)


def test_e5_rsm_ordering_latency(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows.append(faulty_replica_row())
    write_report(
        "e5_rsm",
        format_table(
            rows,
            title=(
                f"E5: RSM per-slot ordering latency on the served log "
                f"(n={N}, {SLOTS} commands, 1 shard, 1 command a slot)"
            ),
        ),
    )

    def mean(p, name):
        return next(
            r["mean slot steps"]
            for r in rows
            if r["contention"] == p and r["algorithm"] == name
        )

    assert mean(0.0, "dex-freq") == 1.0
    assert mean(0.0, "twostep") == 2.0
    assert mean(0.0, "dex-freq") < mean(0.0, "bosco-weak") or mean(0.0, "bosco-weak") == 1.0
    # under contention nobody beats their own fallback ceiling
    assert mean(0.9, "dex-freq") <= 4.0
    assert mean(0.9, "bosco-weak") <= 3.0
    assert all(mean(p, "twostep") == 2.0 for p in CONTENTION)
    # every log orders every command, one slot each — the faulty-replica
    # row included
    assert all(r["slots"] == SLOTS for r in rows)
