"""E15 — the incremental hot-path engine (engineering).

DEX re-evaluates its one-step predicate on every arrival past ``n - t``.
Two ratios say what the incremental engine buys, each against the code it
replaced, which is kept as the reference:

* **predicate** — per-instance cost of replaying one arrival order through
  :class:`~repro.conditions.incremental.ViewStats` (O(1) amortized per
  arrival) versus rebuilding a batch :class:`~repro.conditions.views.View`
  and asking for its frequency gap on every arrival (O(n));
* **coverage** — exact ``V^n`` coverage by the multiset-weighted enumerator
  (``C(n+|V|-1, |V|-1)`` checks) versus brute force (``|V|^n`` checks) at
  ``n = 13`` where both run, and the enumerator alone at ``n = 31``.

Seconds are best-of-k on this machine; the vector counts and the coverage
fractions are exact and asserted.
"""

from math import comb

from _util import best_of, write_report

from repro.analysis.coverage import exact_space_coverage, pair_coverage
from repro.conditions.frequency import FrequencyPair
from repro.conditions.generators import all_vectors, multiset_vectors
from repro.conditions.incremental import ViewStats
from repro.conditions.views import View
from repro.metrics.report import format_table

VALUES = [1, 2]
LOOPS = 100


def predicate_row(n=31, t=5):
    pair = FrequencyPair(n, t)
    arrivals = [(i, i % 2) for i in range(n)]

    def incremental():
        stats = ViewStats(n)
        for who, value in arrivals:
            stats.set_entry(who, value)
            if stats.known >= n - t:
                pair.p1(stats)

    def batch():
        entries = [None] * n
        for known, (who, value) in enumerate(arrivals, start=1):
            entries[who] = value
            if known >= n - t:
                View(v for v in entries if v is not None).frequency_gap() > 4 * t

    incremental_s = best_of(5, lambda: [incremental() for _ in range(LOOPS)]) / LOOPS
    batch_s = best_of(5, lambda: [batch() for _ in range(LOOPS)]) / LOOPS
    return {
        "n": n,
        "incremental us/instance": round(incremental_s * 1e6, 1),
        "batch us/instance": round(batch_s * 1e6, 1),
        "speedup": round(batch_s / incremental_s, 1),
    }


def coverage_row(pair, brute_force):
    f_values = range(pair.t + 1)
    multiset_s = best_of(3, lambda: exact_space_coverage(pair, VALUES, f_values))
    row = {
        "n": pair.n,
        "brute-force vectors": len(VALUES) ** pair.n,
        "multiset vectors": sum(1 for _ in multiset_vectors(VALUES, pair.n)),
        "multiset ms": round(multiset_s * 1e3, 3),
    }
    if brute_force:
        def brute():
            return pair_coverage(pair, list(all_vectors(VALUES, pair.n)), f_values)

        row["brute-force ms"] = round(best_of(1, brute) * 1e3, 1)
        # Exact, not approximate: the same floats.
        assert exact_space_coverage(pair, VALUES, f_values) == brute()
    return row


def test_e15_hotpath(benchmark):
    predicate = benchmark.pedantic(predicate_row, rounds=1, iterations=1)
    coverage = [
        coverage_row(FrequencyPair(13, 2), brute_force=True),
        coverage_row(FrequencyPair(31, 5), brute_force=False),
    ]
    write_report(
        "e15_hotpath",
        format_table([predicate], title="E15: one-step predicate, ViewStats vs View")
        + "\n\n"
        + format_table(coverage, title="E15: exact coverage, |V| = 2"),
    )
    assert predicate["incremental us/instance"] < predicate["batch us/instance"]
    for row in coverage:  # stars and bars
        assert row["multiset vectors"] == comb(row["n"] + len(VALUES) - 1, len(VALUES) - 1)
