"""The repo's end-to-end benchmark (contract: BENCHMARK.json at the repo root).

Driver form, one workload in this (fresh) process::

    python3 benchmarks/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1

prints readable lines and, last, one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Convenience forms, each workload in its own subprocess of the driver form::

    bench.py run [--seed N] [--workload NAME] [--smoke]
    bench.py trace [--seed N] [--workload NAME]
    bench.py selfcheck [--passes N] [--seed N]

README.md explains the workloads, the metrics and the limits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
RESULTS = HERE / "results"
CONTRACT = REPO / "BENCHMARK.json"

#: fresh-interpreter imports timed for ``setup_s`` (their median counts).
IMPORT_PROBES = 5
#: ``--seconds`` that buys exactly one timed trial.
TRIAL_ONLY = 1
#: runs of one ``selfcheck`` set use seeds this far apart, so that no two
#: runs share a trial's command stream (trial ``i`` of a run uses seed+i).
SEED_STRIDE = 100
#: seed offset of the second-seed agreement check that ends ``run``.
SECOND_SEED = 7919
#: ``selfcheck`` writes the committed baseline, so it refuses to start on a
#: box whose 1-minute load average is above this.
MAX_START_LOAD = 1.0

E2E_UNITS = {
    "cmds_per_s": "1/s",
    "slot_commit_p50_s": "s",
    "slot_commit_p99_s": "s",
    "cpu_ms_per_cmd": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}


# -- one workload, in this process ----------------------------------------------------


def _steal_jiffies() -> int:
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _import_seconds(modules: tuple[str, ...], repeats: int) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(modules)}"
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _percentile(ordered: list[float], q: float) -> float:
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _print_discarded(discarded: list[str]) -> None:
    """``run_workers`` reads the count back off this line."""
    print(f"discarded_trials {len(discarded)}")
    for cause in discarded:
        print(f"  discarded {cause}")


def _timed_run(w, seed: int, seconds: int, smoke: bool) -> tuple[dict, dict, list]:
    """Warm-up, then timed trials with tracing off until ``seconds`` are
    spent, a box-speed probe before and after each: the end-to-end metrics,
    each the median over the trials, times in reference seconds."""
    import boxspeed
    from workloads import WARMUP_COMMANDS, run_trial, run_trial_retrying, stream_crc32

    count = WARMUP_COMMANDS if smoke else w.commands
    if not smoke:
        warm = run_trial(w, seed, WARMUP_COMMANDS, "warmup")
        if warm.problems:
            print(f"warm-up (discarded) had problems: {warm.problems}")
    trials = []
    discarded: list[str] = []
    probes = [boxspeed.probe()]
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        index = len(trials)
        trial = run_trial_retrying(w, seed + index, count, f"trial{index}", discarded)
        # only the numbers are needed from here on; a retained result graph
        # makes every later trial's collector passes slower
        trial.result = trial.digest = None
        trials.append(trial)
        probes.append(boxspeed.probe())
        trial.slowness = boxspeed.slowness(*probes[-2:])
        # a trial's length is the program's, so the run ends at the trial
        # boundary nearest to ``seconds``, not on it
        now = time.perf_counter()
        if smoke or now + (now - began) / 2 > deadline:
            break
    print(f"trials {len(trials)} x {count} commands (trial i uses seed {seed}+i)")
    _print_discarded(discarded)
    print("stream_crc32", *(f"{stream_crc32(t.commands):#010x}" for t in trials))
    print("box slowness per trial", *(f"{t.slowness:.3f}" for t in trials),
          f"(probes {' '.join(f'{x:.3f}' for x in probes)} s, "
          f"reference {boxspeed.REFERENCE_S} s)")
    good = [t for t in trials if t.failed < len(t.commands)]
    done = [len(t.commands) - t.failed for t in good]
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    # after the RSS reading: the import probes are children too
    import_s = _import_seconds(w.imports, 1 if smoke else IMPORT_PROBES)
    import_slowness = boxspeed.slowness(probes[-1], boxspeed.probe())
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if good:
        # wall-clock values first, then the same per trial in reference seconds
        rates = [n / t.wall_s for n, t in zip(done, good)]
        costs = [(t.cpu_self_s + t.cpu_children_s) * 1e3 / n for n, t in zip(done, good)]
        setups = [t.build_s + t.spawn_s for t in good]
        ordered = [sorted(t.sink.slot_latencies) for t in good]
        p50s = [_percentile(one, 0.50) for one in ordered]
        p99s = [_percentile(one, 0.99) for one in ordered]
        slow = [t.slowness for t in good]
        # the simulator's clock is virtual: the box's speed is not in it
        clock = [1.0] * len(good) if w.kind == "sim" else slow
        median = statistics.median
        metrics = {
            "cmds_per_s": median(x * s for x, s in zip(rates, slow)),
            "slot_commit_p50_s": median(x / s for x, s in zip(p50s, clock)),
            "slot_commit_p99_s": median(x / s for x, s in zip(p99s, clock)),
            "cpu_ms_per_cmd": median(x / s for x, s in zip(costs, slow)),
            "setup_s": import_s / import_slowness
            + median(x / s for x, s in zip(setups, slow)),
            "rss_peak_mb": usage / 1024,
        }
        samples = f"n={min(map(len, ordered))}+ per trial, {sum(map(len, ordered))} in all"
        notes = {
            "cmds_per_s": f"wall-clock median {median(rates):.1f}; trials "
            + " ".join(f"{r:.1f}" for r in rates),
            "slot_commit_p50_s": f"wall-clock median {median(p50s):.4f}; {samples}; trials "
            + " ".join(f"{x:.4f}" for x in p50s),
            "slot_commit_p99_s": f"wall-clock median {median(p99s):.4f}; {samples}; trials "
            + " ".join(f"{x:.4f}" for x in p99s),
            "cpu_ms_per_cmd": f"wall-clock median {median(costs):.2f}; trials "
            + " ".join(f"{c:.2f}" for c in costs),
            "setup_s": f"wall-clock: median import {import_s:.3f} at slowness "
            f"{import_slowness:.3f} + median trial set-up {median(setups):.3f}",
        }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]}  ({notes.get(name, 'max over processes')})")
    return metrics, E2E_UNITS, trials


def _traced_run(w, seed: int, smoke: bool) -> tuple[dict, dict, list]:
    """One untraced and one traced trial on the same inputs, then the
    isolated probes: the per-layer metrics and the trace file."""
    import layers
    from sink import PayloadSampler
    from spans import Tracer
    from workloads import SHARDS, WARMUP_COMMANDS, run_trial, run_trial_retrying

    count = WARMUP_COMMANDS if smoke else w.commands
    sampler = PayloadSampler(SHARDS, w.hubs) if w.kind != "sim" else None
    # the warm-up never snapshots, so its whole WAL is on disk afterwards
    warm = run_trial(
        w, seed, WARMUP_COMMANDS, "warmup", extra_sink=sampler, snapshot_every=0
    )
    discarded: list[str] = []
    plain = run_trial_retrying(w, seed, count, "plain", discarded)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_trial_retrying(w, seed, count, "traced", discarded, tracer=tracer)
    finally:
        tracer.uninstall()
    _print_discarded(discarded)
    summary = tracer.summary(traced.root_span)
    probes: dict[str, float] = {}
    if plain.failed == 0 and traced.failed == 0:
        plain_rate = len(plain.commands) / plain.wall_s
        traced_rate = len(traced.commands) / traced.wall_s
        summary.update(untraced_cmds_per_s=plain_rate, traced_cmds_per_s=traced_rate)
        probes = layers.run_probes(w, warm, plain, sampler)
        probes["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
        for row in summary["rows"]:
            if row["name"] == "core.dex_on_message":
                probes["core.handler_us_per_msg"] = row["total_s"] / row["count"] * 1e6
    metrics = layers.layer_metrics(w, plain, probes)
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace_{w.name}.json"
    trace_file.write_text(
        json.dumps(
            {"workload": w.name, "seed": seed, "commands": count, **summary}, indent=1
        )
        + "\n"
    )
    print(f"trace: {summary['spans']} spans under {summary['root']} "
          f"({summary['root_s']:.3f} s) -> {trace_file.relative_to(REPO)}")
    for row in summary["rows"]:
        print(f"  span {row['name']:28s} n={row['count']:<8d} "
              f"total {row['total_s']:.4f} s  self {row['self_s']:.4f} s")
    print(f"  span {'(residual)':28s} {'':10s} {'':16s}  self {summary['residual_s']:.4f} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {layers.UNITS[name]}")
    return metrics, layers.UNITS, [plain, traced]


def worker(args: argparse.Namespace) -> int:
    """The driver form: measure one workload in this process."""
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} "
              f"(one of: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    steal = _steal_jiffies()
    print(f"workload {w.name} seed {args.seed} trace {args.trace} nproc {os.cpu_count()} "
          f"load {os.getloadavg()[0]:.2f} python {platform.python_version()} "
          f"commit {_commit()}")
    print(f"why: {w.why}")
    # Sockets and WAL directories live under a work directory inside the
    # checkout; relative paths keep the UDS names under the 108-byte limit
    # wherever the checkout is.
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    os.chdir(work)
    tempfile.tempdir = os.curdir
    try:
        if args.trace:
            metrics, units, trials = _traced_run(w, args.seed, args.smoke)
        else:
            metrics, units, trials = _timed_run(w, args.seed, args.seconds, args.smoke)
    finally:
        os.chdir(HERE)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another worker may still use it
            (HERE / ".work").rmdir()
    attempted = sum(len(t.commands) for t in trials)
    failed = sum(t.failed for t in trials)
    for index, trial in enumerate(trials):
        for problem in trial.problems:
            print(f"FAILED trial {index}: {problem}")
    print(f"attempted {attempted} failed {failed} "
          f"steal_jiffies {_steal_jiffies() - steal} load_after {os.getloadavg()[0]:.2f}")
    correct = failed == 0 and len(metrics) == len(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload, each in a fresh subprocess ---------------------------------------


def _contract() -> dict:
    return json.loads(CONTRACT.read_text())


def run_workers(
    names: list[str], seed: int, seconds: int, trace: int, smoke: bool = False
) -> dict[str, dict]:
    """Run the driver form once per workload; returns its result objects."""
    results = {}
    for name in names:
        command = [sys.executable, str(HERE / "bench.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if smoke:
            command.append("--smoke")
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stdout)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        results[name]["discarded_trials"] = sum(
            int(line.split()[1]) for line in lines if line.startswith("discarded_trials ")
        )
        print()
    return results


def _names(args: argparse.Namespace) -> list[str]:
    """The one workload asked for, or all five: BENCHMARK.json lists only the
    three the driver has time to gate (README.md), the code keeps them all."""
    if args.workload:
        return [args.workload]
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    return list(WORKLOADS)


def _all_correct(results: dict[str, dict]) -> bool:
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"{'ok' if result['correct'] else 'NOT CORRECT'}")
    return all(result["correct"] for result in results.values())


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``trace``: every workload (or one); ``run`` then repeats
    the output checks on a second seed at smoke size."""
    trace = int(args.command == "trace")
    seconds = _contract()["run_seconds"]
    ok = _all_correct(run_workers(_names(args), args.seed, seconds, trace, args.smoke))
    if not trace and not args.smoke:
        print(f"\nagreement check on a second seed ({args.seed + SECOND_SEED}):")
        ok &= _all_correct(
            run_workers(_names(args), args.seed + SECOND_SEED, seconds, 0, smoke=True)
        )
    return 0 if ok else 1


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` reads than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def _write(name: str, header: dict, body: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps({**header, **body}, indent=1) + "\n")


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Two interleaved sets of passes of the same tree must agree within the
    bounds BENCHMARK.json fixes; every pass has a seed of its own.  The
    medians over every pass become the committed baseline."""
    load = os.getloadavg()[0]
    if load > MAX_START_LOAD:
        print(f"selfcheck: load average {load:.2f} > {MAX_START_LOAD}: the box is "
              "busy, a baseline taken now would read low", file=sys.stderr)
        return 2
    contract = _contract()
    args.workload = None
    names = _names(args)
    gated = [w["name"] for w in contract["workloads"]]
    header = {"passes_per_set": args.passes, "seed": args.seed, "commit": _commit(),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "load_at_start": load, "run_seconds": contract["run_seconds"],
              "gated_workloads": gated}
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    seeds = iter(range(args.seed, args.seed + 2 * args.passes * SEED_STRIDE, SEED_STRIDE))
    for index in range(args.passes):
        for label in sets:
            print(f"== selfcheck pass {index + 1}/{args.passes} of set {label} ==")
            sets[label].append(
                run_workers(names, next(seeds), contract["run_seconds"], 0)
            )
    runs = [run for both in zip(*sets.values()) for run in both]
    ok = all(result["correct"] for run in runs for result in run.values())
    rows = []
    baseline: dict[str, dict] = {}
    print(f"{'workload':22s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
          f"{'worse':>7s} {'iqr A':>7s} {'iqr B':>7s} {'iqr all':>7s} {'bound':>6s}")
    for name in names:
        baseline[name] = {
            "attempted": sum(run[name]["attempted"] for run in runs),
            "failed": sum(run[name]["failed"] for run in runs),
            "discarded_trials": sum(run[name]["discarded_trials"] for run in runs),
            "metrics": {},
        }
        for metric in contract["end_to_end"]:
            a, b = (
                [run[name]["metrics"][metric["name"]]["value"] for run in sets[label]
                 if metric["name"] in run[name]["metrics"]]
                for label in sets
            )
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = max(_worsening(med_a, med_b, metric["better"]),
                        _worsening(med_b, med_a, metric["better"]))
            spreads = _spread(a), _spread(b)
            spread_all = _spread(a + b)
            agree = worse <= metric["bound"]
            # the contract wants ten runs' spread inside the bound too; a
            # cell that is wider cannot resolve a regression of that size
            unresolved = metric["name"] != "setup_s" and max(spreads) > metric["bound"]
            ok &= agree
            rows.append({"workload": name, "metric": metric["name"], "unit": metric["unit"],
                         "set_a": a, "set_b": b, "median_a": med_a, "median_b": med_b,
                         "worse_share": worse, "iqr_share_a": spreads[0],
                         "iqr_share_b": spreads[1], "iqr_share_all": spread_all,
                         "bound": metric["bound"], "gated": name in gated,
                         "agree": agree, "unresolved": unresolved})
            baseline[name]["metrics"][metric["name"]] = {
                "value": statistics.median(a + b), "unit": metric["unit"],
                "iqr_share": spread_all, "runs": len(a + b)}
            print(f"{name:22s} {metric['name']:18s} {med_a:12.5g} {med_b:12.5g} "
                  f"{worse:7.2%} {spreads[0]:7.2%} {spreads[1]:7.2%} {spread_all:7.2%} "
                  f"{metric['bound']:6.0%}{'' if agree else '  DISAGREE'}"
                  f"{'  unresolved' if unresolved else ''}")
    # sim_core runs on a virtual clock: per seed, a trial's latencies and
    # counts repeat exactly (a run's trial count is the box's, so compare one)
    exact = ["slot_commit_p50_s", "slot_commit_p99_s"]
    one, two = (
        run_workers(["sim_core"], args.seed, TRIAL_ONLY, 0)["sim_core"] for _ in range(2)
    )
    repeats = all(one["metrics"][m] == two["metrics"][m] for m in exact)
    print("\nper-layer metrics (sim_core twice: its counts repeat exactly):")
    layers_run = run_workers(names, args.seed, contract["run_seconds"], 1)
    again = run_workers(["sim_core"], args.seed, contract["run_seconds"], 1)["sim_core"]
    counted = ["shard.one_step_share", "shard.two_step_share", "shard.uc_share",
               "sim.msgs_per_cmd"]
    repeats &= all(
        layers_run["sim_core"]["metrics"][m] == again["metrics"][m] for m in counted
    )
    print(f"sim_core {', '.join(exact + counted)} repeat exactly: {repeats}")
    ok &= repeats and all(result["correct"] for result in layers_run.values())
    _write("noise.json", header,
           {"sim_core_repeats_exactly": repeats, "agree": ok, "rows": rows})
    _write("baseline_e2e.json", header, {"workloads": baseline})
    _write("baseline_layers.json", header, {"workloads": layers_run})
    print("selfcheck:", "sets agree" if ok else "SETS DISAGREE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("run", "trace", "selfcheck"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 trial x 128 commands, no warm-up, no bounds")
    parser.add_argument("--passes", type=int, default=5, help="selfcheck: passes per set")
    args = parser.parse_args(argv)
    if args.command is None:
        if not args.workload:
            parser.error("--workload is required without a subcommand")
        return worker(args)
    if args.command == "selfcheck":
        if args.passes < 2:
            parser.error("selfcheck needs at least 2 passes per set")
        return cmd_selfcheck(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
