#!/usr/bin/env python3
"""Replicated state machine ordering — the paper's §1.1 motivation.

Seven replicas of a key-value store order client commands through
consensus.  When clients rarely collide (the common case the paper argues
from), every slot is ordered in a single communication step by DEX; a
plain two-step protocol pays double on every slot.

The log is the sharded service with one shard and one command a slot:
the script sweeps the contention rate and prints the mean per-slot
ordering latency for DEX, BOSCO and the two-step baseline.

Run:  python examples/rsm_ordering.py
"""

from repro import bosco_weak, dex_freq, twostep
from repro.metrics import format_table
from repro.shard import ShardedService


def main():
    print(__doc__)
    rows = []
    for contention in (0.0, 0.1, 0.3, 0.6, 0.9):
        for spec in (dex_freq(), bosco_weak(), twostep()):
            report = ShardedService(
                n=7,
                shards=1,
                max_batch=1,
                algorithm=spec,
                contention=contention,
                seed=int(contention * 100),
            ).run(count=10)
            assert not report.divergence, "replicas diverged!"
            rows.append(
                {
                    "contention": contention,
                    "algorithm": spec.name,
                    "mean slot steps": round(report.aggregate["mean_max_step"], 2),
                    "1-step decisions": f"{report.aggregate['one_step_frac']:.0%}",
                }
            )
    print(format_table(rows, title="Per-slot ordering latency (7 replicas, 10 commands)"))
    print(
        "\nAt zero contention DEX orders every slot in one step — half the "
        "latency of the\ntwo-step optimum; the advantage shrinks as "
        "concurrent client requests increase."
    )


if __name__ == "__main__":
    main()
