"""Paired, alternating benchmark runs of a parent commit and this checkout.

    python3 benchmarks/pair.py --parent REV --workload W --pairs N --seed0 S
    python3 benchmarks/pair.py --parent REV --workload W --pairs N --seed0 S \\
        --parent-checkout /path/to/a/clone/of/REV

Pair ``i`` runs the one-workload form of the benchmark,
``benchmarks/e2e/bench.py --workload W --seed S+i --seconds 35 --trace 0``,
once in each checkout as a subprocess — the parent first on even pairs, this
checkout first on odd ones — so both sides of a pair see the same seed and,
as nearly as a shared box allows, the same machine.  The parent is checked
out locally (``git worktree add --detach``, removed afterwards) unless
``--parent-checkout`` names an existing checkout of it; nothing is fetched.

Before each run the script waits, up to :data:`SETTLE_S` seconds, for the
1-minute load average to fall to ``nproc`` or below: a benchmark run keeps
eight processes busy, so the previous run alone lifts the average above
``nproc`` for half a minute.  Every run's JSON result line, with the
1-minute load average at its start, is appended to
``benchmarks/results/pairs/<rev>-<W>.json`` (one JSON object per line).
At the end, for each end-to-end metric of ``BENCHMARK.json``,
the script prints each side's median [q1–q3], the change's wins (ties count
for neither side), the median within-pair ratio change / parent and the
verdict under ``benchmarks/e2e/README.md``'s rule (:func:`verdict`), and
whether the change's median stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Iterator, Sequence

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
PAIRS = HERE / "results" / "pairs"
SECONDS = 35

#: A gain needs the change to win at least this share of all pairs run.
WIN_SHARE = 0.9

#: The longest wait for a quiet box before a run starts anyway (its load is
#: recorded, and a verdict over it reads ``unresolved: load``).
SETTLE_S = 180


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method (a sample's own values bound them)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    pairs: Sequence[tuple[float, float]],
    better: str,
    loads: Sequence[float] = (),
    cpus: int = 1,
) -> str:
    """The README's rule on ``(parent, change)`` pairs of one metric.

    ``"unresolved: load"`` when any run started with a 1-minute load average
    above ``cpus``; else ``"gain"`` when the change wins at least
    :data:`WIN_SHARE` of the pairs and its median beats the parent's by more
    than the parent's interquartile range, ``"loss"`` when the same holds the
    other way round, ``"none"`` otherwise.  ``better`` is ``"higher"`` or
    ``"lower"``.
    """
    if any(load > cpus for load in loads):
        return "unresolved: load"
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if abs(gap) <= q3 - q1:
        return "none"
    if gap > 0 and wins >= WIN_SHARE * len(pairs):
        return "gain"
    if gap < 0 and losses >= WIN_SHARE * len(pairs):
        return "loss"
    return "none"


def within_bound(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """Whether the change's median is no worse than the parent's by more
    than ``bound`` (a share of the parent's median)."""
    if better == "higher":
        return change_median >= parent_median * (1 - bound)
    return change_median <= parent_median * (1 + bound)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


@contextlib.contextmanager
def _parent_tree(rev: str, checkout: str | None) -> Iterator[pathlib.Path]:
    if checkout is not None:
        yield pathlib.Path(checkout).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="pair-parent-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        _git("worktree", "add", "--detach", str(tree), rev)
        try:
            yield tree
        finally:
            _git("worktree", "remove", "--force", str(tree))


def _settled_load(cpus: int) -> float:
    """The 1-minute load average once it is at most ``cpus``, or after
    :data:`SETTLE_S` seconds, whichever comes first."""
    deadline = time.monotonic() + SETTLE_S
    while (load := os.getloadavg()[0]) > cpus and time.monotonic() < deadline:
        time.sleep(1.0)
    return load


def _run(tree: pathlib.Path, workload: str, seed: int, seconds: int) -> tuple[float, dict]:
    """One ``bench.py`` run in ``tree``: ``(load at start, its JSON result)``."""
    load = _settled_load(os.cpu_count() or 1)
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "bench.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return load, result


def report(runs: list[dict], contract: dict) -> list[str]:
    """The verdict table over the recorded ``runs`` (complete pairs only)."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    loads = [sides[side]["load1"] for sides in pairs for side in ("parent", "change")]
    failed = {
        side: sum(sides[side]["result"].get("failed", 0) for sides in pairs)
        for side in ("parent", "change")
    }
    lines = [
        f"{len(pairs)} pairs; failed operations parent {failed['parent']} "
        f"change {failed['change']}; highest load at a start {max(loads, default=0):.2f} "
        f"(nproc {os.cpu_count()})",
        f"{'metric':<20} {'parent median [q1-q3]':>28} {'change median [q1-q3]':>28} "
        f"{'wins':>6} {'ratio':>6}  verdict / bound",
    ]
    for metric in contract["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = [
            (sides["parent"]["result"]["metrics"][name]["value"],
             sides["change"]["result"]["metrics"][name]["value"])
            for sides in pairs
            if all(name in sides[s]["result"].get("metrics", {}) for s in sides)
        ]
        if not values:
            continue
        sign = 1 if better == "higher" else -1
        parent_q = quartiles([p for p, _ in values])
        change_q = quartiles([c for _, c in values])
        wins = sum(sign * (c - p) > 0 for p, c in values)
        ratio = statistics.median(c / p for p, c in values if p)
        bound = "ok" if within_bound(parent_q[1], change_q[1], better, metric["bound"]) else (
            f"WORSE than its {metric['bound']:.0%} bound"
        )
        lines.append(
            f"{name:<20} {parent_q[1]:>10.4g} [{parent_q[0]:.4g}-{parent_q[2]:.4g}] "
            f"{change_q[1]:>10.4g} [{change_q[0]:.4g}-{change_q[2]:.4g}] "
            f"{wins:>3}/{len(values):<2} {ratio:>6.3f}  "
            f"{verdict(values, better, loads, os.cpu_count() or 1)} / {bound}"
        )
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True, help="pair i runs seed seed0 + i")
    parser.add_argument("--parent-checkout", help="an existing checkout of the parent to use")
    args = parser.parse_args(argv)
    rev = _git("rev-parse", "--short=12", args.parent)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    PAIRS.mkdir(parents=True, exist_ok=True)
    out = PAIRS / f"{rev}-{args.workload}.json"
    runs: list[dict] = []
    with _parent_tree(rev, args.parent_checkout) as parent:
        for index in range(args.pairs):
            seed = args.seed0 + index
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else REPO
                load, result = _run(tree, args.workload, seed, SECONDS)
                run = {
                    "parent": rev, "workload": args.workload, "pair": index,
                    "seed": seed, "side": side, "first": side == order[0],
                    "load1": load, "result": result,
                }
                runs.append(run)
                with out.open("a") as sink:
                    sink.write(json.dumps(run) + "\n")
                metrics = result.get("metrics", {})
                shown = " ".join(
                    f"{m['name']}={metrics[m['name']]['value']:.4g}"
                    for m in contract["end_to_end"] if m["name"] in metrics
                )
                print(f"pair {index} seed {seed} {side:<6} load {load:.2f} "
                      f"failed {result.get('failed')} {shown}", flush=True)
    print(f"runs appended to {out.relative_to(REPO)}")
    print("\n".join(report(runs, contract)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
