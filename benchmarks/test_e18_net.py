"""E18 — the fast path over real sockets: one-step rate, sim vs net.

The paper's one-step claim is a race: a node fast-decides iff its first
``n - t`` arrivals witness the condition.  The simulator resolves that race
with a seeded virtual clock; the ``net`` engine forks one OS process per
node and ships every message through a kernel socket, so real scheduling
resolves it.  Per algorithm, workload and engine, the same seeds run and
their :class:`~repro.engine.run.RunResult`\ s fold into a
:class:`~repro.metrics.collectors.RunAggregate`; no event sink is attached.
"1-step frac" is the share of correct decisions taken at step 1 (so
BOSCO's fast decisions count), latency the correct decisions' times.

Expected shape: ``unanimous`` and ``thin-split`` fast-decide in one step on
every run of both engines (the condition holds in every ``n - t`` subset,
so no interleaving can break it) and both engines decide the forced value;
``contended`` falls through to the underlying consensus on both, where the
decided value is a legitimate race between two proposed values.  Latency is
virtual time on sim and seconds on net, so only the net rows carry msgs/s.

The BOSCO and two-step rows are E8's, which ran them on an in-memory event
loop: the simulator's step story — DEX one step on unanimous input, the
two-step reference two, and on contended input BOSCO three and DEX four —
holds unchanged on real processes.  No interleaving can move those steps:
the fast paths hold or fail in every ``n - t`` subset of these inputs.
"""

from _util import write_report

from repro.harness import Scenario, bosco_weak, dex_freq, twostep
from repro.metrics.collectors import RunAggregate
from repro.metrics.report import format_table
from repro.types import percentile
from repro.workloads.inputs import split, unanimous

N = 7
RUNS = 10
#: name, inputs, the values a run may decide (one = forced on every engine).
UNANIMOUS = ("unanimous", unanimous(1, N), {1})
CONTENDED = ("contended", split(1, 2, N, N // 2), {1, 2})
#: algorithm, its workloads.
CELLS = (
    (dex_freq, (UNANIMOUS, ("thin-split", split(1, 2, N, 1), {1}), CONTENDED)),
    (bosco_weak, (UNANIMOUS, CONTENDED)),
    (twostep, (UNANIMOUS, CONTENDED)),
)


def sweep():
    rows = []
    for algorithm, workloads in CELLS:
        for name, inputs, admissible in workloads:
            for engine in ("sim", "net"):
                aggregate = RunAggregate(label=f"{name}/{engine}")
                latencies, delivered, wall, timeouts = [], 0, 0.0, 0
                for seed in range(1, RUNS + 1):
                    result = Scenario(algorithm(), inputs, seed=seed, engine=engine).run()
                    assert result.all_correct_decided() and result.agreement_holds()
                    assert result.decided_value in admissible, (name, engine, seed)
                    aggregate.add(result)
                    latencies += [d.time for d in result.correct_decisions.values()]
                    delivered += result.stats.messages_delivered
                    wall += result.end_time
                    timeouts += result.timed_out
                steps = aggregate.steps
                rows.append(
                    {
                        "algorithm": algorithm().name,
                        "workload": name,
                        "engine": engine,
                        "1-step frac": round(sum(s <= 1 for s in steps) / len(steps), 3),
                        "mean max step": round(aggregate.mean_max_step, 3),
                        "p50 latency": round(percentile(latencies, 0.50), 4),
                        "p99 latency": round(percentile(latencies, 0.99), 4),
                        # end_time is wall-clock only on net (virtual on sim)
                        "msgs/s": round(delivered / wall, 1) if engine == "net" else "",
                        "timeouts": timeouts,
                    }
                )
    return rows


def test_e18_one_step_rate_sim_vs_net(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e18_net",
        format_table(
            rows,
            title=f"E18: one-step rate, sim vs real sockets (n={N}, {RUNS} seeds per cell)",
        ),
    )
    assert all(row["timeouts"] == 0 for row in rows)
    steps = {(r["algorithm"], r["workload"], r["engine"]): r["mean max step"] for r in rows}
    for engine in ("sim", "net"):
        assert steps["dex-freq", "unanimous", engine] == 1
        assert steps["twostep", "unanimous", engine] == 2
        assert steps["bosco-weak", "contended", engine] == 3
        assert steps["dex-freq", "contended", engine] == 4
    assert all(
        row["1-step frac"] == 1.0
        for row in rows
        if row["workload"] == "unanimous" and row["algorithm"] == "dex-freq"
    )
