"""Shared helpers for the benchmark/experiment harness.

Every bench regenerates one paper artifact (table or figure) or one
extension experiment.  Besides timing (pytest-benchmark), each bench writes
its regenerated rows/series to ``benchmarks/results/<name>.txt`` so the
artifacts survive the run and EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_report(name: str, text: str) -> pathlib.Path:
    """Persist one experiment's regenerated output and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls of ``fn`` — the
    least-noise estimator for a deterministic workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
