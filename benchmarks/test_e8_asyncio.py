"""E8 — wall-clock latency on the asyncio runtime.

The same protocols, a real event loop, in-memory transport with ~2 ms
links: decision latency of DEX vs BOSCO vs the two-step baseline on the
unanimous (fast-path) and contended (fallback) workloads.  A run's latency
is its slowest correct decision's ``Decision.time`` (seconds since the run
started) — not ``RunResult.end_time``, which adds the loop's teardown.
Validates that the simulator's step story translates into wall-clock
ordering: one-step < two-step < three/four-step fallbacks.
"""

import statistics

from _util import write_report

from repro.harness import Scenario, bosco_weak, dex_freq, twostep
from repro.metrics.report import format_table
from repro.workloads.inputs import split, unanimous

N = 7
RUNS = 5


def measure(spec, inputs):
    times = []
    steps = []
    for seed in range(RUNS):
        result = Scenario(spec, list(inputs), seed=seed, engine="asyncio").run(
            timeout=20, mean_delay=0.002
        )
        assert not result.timed_out
        assert result.agreement_holds()
        times.append(max(d.time for d in result.correct_decisions.values()))
        steps.append(result.max_correct_step)
    return statistics.fmean(times) * 1000, max(steps)


def sweep():
    rows = []
    for spec in (dex_freq(), bosco_weak(), twostep()):
        fast_ms, fast_steps = measure(spec, unanimous(1, N))
        slow_ms, slow_steps = measure(spec, split(1, 2, N, N // 2))
        rows.append(
            {
                "algorithm": spec.name,
                "unanimous ms": round(fast_ms, 2),
                "unanimous steps": fast_steps,
                "contended ms": round(slow_ms, 2),
                "contended steps": slow_steps,
            }
        )
    return rows


def test_e8_asyncio_wall_clock(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e8_asyncio",
        format_table(
            rows,
            title=f"E8: asyncio decision latency per consensus, slowest correct "
            f"decision (n={N}, ~2 ms links, mean of {RUNS} runs)",
        ),
    )
    by = {r["algorithm"]: r for r in rows}
    # step story carries over to the loop runtime (wall-clock numbers are
    # reported but not asserted — they depend on machine load)
    assert by["dex-freq"]["unanimous steps"] == 1
    assert by["twostep"]["unanimous steps"] == 2
    assert by["dex-freq"]["contended steps"] == 4
    assert by["bosco-weak"]["contended steps"] == 3
