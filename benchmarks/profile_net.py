"""Profile one process of a benchmark trial: hub 0 or one replica.

    python3 benchmarks/profile_net.py --role node --label after
    python3 benchmarks/profile_net.py --role node --label before --src /path/to/parent/src
    python3 benchmarks/profile_net.py --role node --workload pipeline_star --sample --label after

writes ``benchmarks/results/{role}_profile_{workload}_{label}.txt``.  The
trial is the benchmark's own (``benchmarks/e2e/workloads.run_trial``, seed
11, 640 commands); ``--src`` points at the ``src/`` of the checkout to
profile, so a ``git clone`` of the parent commit gives the *before* file.
``hub0`` profiles the bench process (the hub loop runs in it); ``node``
profiles replica 3 inside its forked worker (``--sample``: all seven,
merged — a replica burns only ~0.3 CPU-seconds on this trial).

``--workload``: ``floor_star`` (the default) runs no durable, rejoin or
frontend code, so a cost that lives there is invisible on it —
``pipeline_star`` is the whole path.  Its hub loop runs in the frontend's
server thread, which neither profiler follows: ``--role node`` only.

Two profilers.  The default, cProfile, counts calls but charges each one
its tracing overhead, so call-heavy Python (the codec's recursion) reads
larger than it is.  ``--sample`` interrupts the process on its own CPU time
(``ITIMER_PROF``; the kernel delivers at most one signal per clock tick, 4 ms
at ``HZ=250``) and records the Python stack: shares of CPU as spent, no call
counts.  Either way read shares, not seconds, and measure speed with
``benchmarks/e2e/bench.py``.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import io
import os
import pathlib
import pickle
import pstats
import signal
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SEED, COMMANDS, NODE_PID = 11, 640, 3
#: CPU seconds between two samples ``--sample`` asks for.
SAMPLE_EVERY = 0.001


class Sampler:
    """``cProfile.Profile``'s two calls over a CPU-time stack sampler."""

    def __init__(self) -> None:
        self.stacks: collections.Counter[tuple[str, ...]] = collections.Counter()
        self._base = None  # ``runcall``'s frame: stacks are cut below it

    def _tick(self, signum, frame) -> None:
        stack = []
        while frame is not None and frame is not self._base:
            code = frame.f_code
            stack.append(
                f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}({code.co_name})"
            )
            frame = frame.f_back
        if stack:  # else the tick landed in ``runcall`` itself
            self.stacks[tuple(stack)] += 1

    def runcall(self, func, *args):
        # Handlers run in the process's main thread: the bench process's
        # own, and in a forked worker the thread that forked it.
        self._base = sys._getframe()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            return func(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def dump_stats(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump(dict(self.stacks), fh)


def _sample_report(stats_paths: list[str], header: str) -> str:
    inclusive: collections.Counter[str] = collections.Counter()
    own: collections.Counter[str] = collections.Counter()
    for path in stats_paths:
        with open(path, "rb") as fh:
            for stack, count in pickle.load(fh).items():
                own[stack[0]] += count
                for name in set(stack):
                    inclusive[name] += count
    total = sum(own.values())
    out = [
        header,
        f"{total} samples of CPU time from {len(stats_paths)} process(es); a C call "
        "counts for the Python function that made it.",
    ]
    for title, table, rows in (
        ("on the stack (inclusive)", inclusive, 40),
        ("running (own time)", own, 20),
    ):
        out.append(f"\n== share of samples, function {title} ==\n")
        out.append(" share  samples  filename:lineno(function)")
        for name, count in table.most_common(rows):
            out.append(f"{100 * count / total:5.1f}%  {count:7d}  {name}")
    return "\n".join(out) + "\n"


def _report(stats_paths: list[str], header: str) -> str:
    (stats_path,) = stats_paths
    out = io.StringIO()
    out.write(header + "\ncProfile inflates Python-level calls; read shares, not seconds.\n")
    stats = pstats.Stats(stats_path, stream=out).strip_dirs()
    for title, key, rows in (("cumulative time", "cumulative", 22), ("own time", "tottime", 12)):
        out.write(f"\n== by {title} ==\n")
        stats.sort_stats(key).print_stats(rows)
    # pstats heads each listing with today's date and the (temporary) file name
    return "".join(
        line for line in out.getvalue().splitlines(True) if stats_path not in line
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("hub0", "node"), required=True)
    parser.add_argument("--label", choices=("before", "after"), required=True)
    parser.add_argument(
        "--workload", choices=("floor_star", "pipeline_star"), default="floor_star"
    )
    parser.add_argument(
        "--sample", action="store_true", help="ITIMER_PROF stack samples, not cProfile"
    )
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    args = parser.parse_args()
    if args.role == "hub0" and args.workload != "floor_star":
        parser.error("hub 0 of pipeline_star runs in the frontend's server thread; use --role node")
    src = os.path.abspath(args.src)
    sys.path[:0] = [src, str(HERE / "e2e")]

    import workloads  # benchmarks/e2e
    from repro.net.node import NodeWorker

    def git(*command: str) -> str:
        return subprocess.run(
            ["git", "-C", src, *command], capture_output=True, text=True
        ).stdout.strip()

    commit = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--", "."):
        commit += " + uncommitted changes"
    with tempfile.TemporaryDirectory(prefix="profile-net-") as tmp:
        stats_path = os.path.join(tmp, "profile.pstats")
        profile = Sampler() if args.sample else cProfile.Profile()
        if args.role == "node":
            worker_run = NodeWorker.run

            def profiled_run(self, recv_timeout: float = 60.0) -> int:
                # Forked workers inherit this wrapper; cProfile runs in one
                # of them, the sampler in each, and a profiled worker dumps
                # before node_main leaves through os._exit.
                if self.pid != NODE_PID and not args.sample:
                    return worker_run(self, recv_timeout)
                try:
                    return profile.runcall(worker_run, self, recv_timeout)
                finally:
                    profile.dump_stats(f"{stats_path}.{self.pid}")

            NodeWorker.run = profiled_run
        workload = workloads.WORKLOADS[args.workload]
        trial_root = os.path.join(tmp, "trial")
        if args.role == "hub0":
            trial = profile.runcall(workloads.run_trial, workload, SEED, COMMANDS, trial_root)
            profile.dump_stats(f"{stats_path}.hub0")
        else:
            trial = workloads.run_trial(workload, SEED, COMMANDS, trial_root)
        if trial.problems or trial.digest is None:
            sys.exit(f"the profiled trial failed: {trial.problems}")
        stats = trial.result.stats
        if args.role == "hub0":
            who = "hub 0 (bench process)"
        elif args.sample:
            who = "all replicas (forked workers)"
        else:
            who = f"replica {NODE_PID} (forked worker)"
        how = "under cProfile"
        if args.sample:
            how = f"sampled (ITIMER_PROF, {SAMPLE_EVERY * 1e3:g} ms)"
        header = (
            f"{who} {how}: {args.workload}, seed {SEED}, {COMMANDS} commands, "
            f"{stats.messages_sent} routed messages, {trial.result.hub_frames} frames to "
            f"nodes, {getattr(trial.result, 'hub_frames_in', 'n/a')} frames from nodes, "
            f"checkout {commit} ({args.label})"
        )
        dumps = sorted(str(path) for path in pathlib.Path(tmp).glob("profile.pstats.*"))
        text = (_sample_report if args.sample else _report)(dumps, header)
    path = HERE / "results" / f"{args.role}_profile_{args.workload}_{args.label}.txt"
    path.write_text(text)
    print(text)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
