"""cProfile one process of a ``floor_star`` trial: hub 0 or one replica.

    python3 benchmarks/profile_net.py --role node --label after
    python3 benchmarks/profile_net.py --role node --label before --src /path/to/parent/src

writes ``benchmarks/results/{role}_profile_floor_star_{label}.txt``.  The
trial is the benchmark's own (``benchmarks/e2e/workloads.run_trial``, seed
11, 640 commands); ``--src`` points at the ``src/`` of the checkout to
profile, so a ``git clone`` of the parent commit gives the *before* file.
``hub0`` profiles the bench process (the hub loop runs in it); ``node``
profiles replica 3 inside its forked worker.  cProfile inflates
Python-level calls: read shares, not seconds, and measure speed with
``benchmarks/e2e/bench.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pathlib
import pstats
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SEED, COMMANDS, NODE_PID = 11, 640, 3


def _report(stats_path: str, header: str) -> str:
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
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    args = parser.parse_args()
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
        profile = cProfile.Profile()
        if args.role == "node":
            worker_run = NodeWorker.run

            def profiled_run(self, recv_timeout: float = 60.0) -> int:
                # Forked workers inherit this wrapper; only one is profiled,
                # and it dumps before node_main leaves through os._exit.
                if self.pid != NODE_PID:
                    return worker_run(self, recv_timeout)
                try:
                    return profile.runcall(worker_run, self, recv_timeout)
                finally:
                    profile.dump_stats(stats_path)

            NodeWorker.run = profiled_run
        floor = workloads.WORKLOADS["floor_star"]
        trial_root = os.path.join(tmp, "trial")
        if args.role == "hub0":
            trial = profile.runcall(workloads.run_trial, floor, SEED, COMMANDS, trial_root)
            profile.dump_stats(stats_path)
        else:
            trial = workloads.run_trial(floor, SEED, COMMANDS, trial_root)
        if trial.problems or trial.digest is None:
            sys.exit(f"the profiled trial failed: {trial.problems}")
        stats = trial.result.stats
        who = "hub 0 (bench process)" if args.role == "hub0" else f"replica {NODE_PID} (forked worker)"
        header = (
            f"{who} under cProfile: floor_star, seed {SEED}, {COMMANDS} commands, "
            f"{stats.messages_sent} routed messages, {trial.result.hub_frames} frames to "
            f"nodes, {getattr(trial.result, 'hub_frames_in', 'n/a')} frames from nodes, "
            f"checkout {commit} ({args.label})"
        )
        text = _report(stats_path, header)
    path = HERE / "results" / f"{args.role}_profile_floor_star_{args.label}.txt"
    path.write_text(text)
    print(text)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
