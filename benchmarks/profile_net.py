"""Profile one process of a benchmark trial: hub 0, one replica, or the simulator.

    python3 benchmarks/profile_net.py --census --workload pipeline_star
    python3 benchmarks/profile_net.py --role node --label after
    python3 benchmarks/profile_net.py --role node --label before --src /path/to/parent/src
    python3 benchmarks/profile_net.py --role node --workload pipeline_star --sample --label after
    python3 benchmarks/profile_net.py --role hub0 --workload pipeline_star --sample --label after
    python3 benchmarks/profile_net.py --role sim --workload sim_core --sample --label after
    python3 benchmarks/profile_net.py --role node --workload pipeline_star --replay

writes ``benchmarks/results/{role}_profile_{workload}_{label}.txt``.  The
trial is the benchmark's own (``benchmarks/e2e/workloads.run_trial``, seed
11, 640 commands unless ``--commands`` says otherwise); ``--src`` points at the ``src/`` of the checkout to
profile, so a ``git clone`` of the parent commit gives the *before* file.
``hub0`` profiles the bench process (the hub loop runs in it); ``node``
profiles replica 3 inside its forked worker (``--sample``: all seven,
merged — a replica burns only ~0.3 CPU-seconds on this trial); ``sim``
profiles the bench process running one ``sim_core`` trial (every replica,
the event stream and its sinks on the simulator's virtual clock) and goes
with ``--workload sim_core`` only.

``--workload``: ``floor_star`` (the default) runs no durable, rejoin or
frontend code, so a cost that lives there is invisible on it —
``pipeline_star`` is the whole path.  The benchmark runs its hub loop in the
frontend's server thread, which neither profiler follows, so ``--role hub0``
swaps the two threads of the trial: the frontend session (and the hub loop
under it) is served in the main thread, the client runs in a helper thread
with ``SIGPROF`` blocked.

``--replay`` (``--role node``, no profiler, no ``--label``) measures what a
profile cannot resolve: a replica is a deterministic function of the bytes
it receives, so its CPU cost can be re-run offline.  Replica 3's worker forks
a pristine copy of itself before its ``Hello`` and records every ``recv``;
when the live run ends, the copy forks ``REPLAYS`` times and each fork feeds
the recorded chunks through ``FrameDecoder`` → ``NodeWorker._dispatch`` with a
discarding socket and a fresh WAL directory.  It prints the best fork's CPU
milliseconds and the messages the replay sent, and exits non-zero unless that
count equals the live replica's — the determinism the comparison rests on.

``--census`` (no profiler, no ``--role``, no ``--label``) counts instead of
timing: the frames hub 0 read off node links by record kind, and the log
records among them by name, in total and per slot — read off the run's own
event stream (the ``n`` sends of one ``MsgBroadcast`` share one payload span,
a ``MsgSend`` has its own and is named after what it carries), and checked
against ``NetRunResult.hub_frames_in``.  Both workloads are healthy runs —
nobody crashes — so a slot should cost its 63 consensus broadcasts and its
bookkeeping records and nothing else: the census exits non-zero on any
``MsgOutput``, ``MsgSend`` or ``recovery.re_served``.

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
import dataclasses
import io
import json
import os
import pathlib
import pickle
import pstats
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
SEED, COMMANDS, NODE_PID = 11, 640, 3
#: CPU seconds between two samples ``--sample`` asks for.
SAMPLE_EVERY = 0.001
#: forks of the pristine replica ``--replay`` runs; the cheapest is reported.
REPLAYS = 5
#: seconds the bench process waits for the replay forks after the trial.
REPLAY_TIMEOUT = 120.0


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


class Census:
    """An event sink that counts hub 0's inbound frames by record kind.

    The hub emits one event per control frame and one ``SendEvent`` per
    destination of a data frame, consecutively and all holding the frame's
    one payload span — so a run of sends over one span is one frame:
    ``MsgBroadcast`` when it fans out, else a ``MsgSend``, booked under
    the record it carries."""

    #: the event hub 0 emits for each control frame that is not a log.
    _CONTROL = {
        "DecideEvent": "MsgDecide",
        "OutputEvent": "MsgOutput",
        "ServiceEvent": "MsgService",
    }

    def __init__(self) -> None:
        self.frames: collections.Counter[str] = collections.Counter()
        self.logs: collections.Counter[str] = collections.Counter()
        self._span, self._copies = None, 0

    def emit(self, event) -> None:
        kind = type(event).__name__
        if kind == "SendEvent":
            if event.raw is not self._span:
                self._close_frame()
                self._span = event.raw
            self._copies += 1
        elif kind == "LogEvent":
            if event.pid >= 0:  # else the frontend's own record: no frame carried it
                self.frames["MsgLog"] += 1
                self.logs[event.event] += 1
        elif kind in self._CONTROL:
            self.frames[self._CONTROL[kind]] += 1

    def _close_frame(self) -> None:
        if self._copies > 1:
            self.frames["MsgBroadcast"] += 1
        elif self._copies:
            span = self._span
            carried = span.decode() if hasattr(span, "decode") else span
            self.frames[f"MsgSend({type(carried).__name__})"] += 1
        self._span, self._copies = None, 0

    def report(self, slots: int, frames_in: int, header: str) -> tuple[str, list[str]]:
        """The two tables, and what a healthy run should not contain."""
        self._close_frame()
        out = [header, f"{slots} slots, {frames_in} frames into hub 0 off node links"]
        for title, table in (("frames by record", self.frames), ("log records by name", self.logs)):
            out.append(f"\n== {title} ==\n")
            out.append("   total  per slot  kind")
            for name, count in sorted(table.items(), key=lambda row: (-row[1], row[0])):
                out.append(f"{count:8d}  {count / slots:8.2f}  {name}")
            total = sum(table.values())
            out.append(f"{total:8d}  {total / slots:8.2f}  (all)")
        unhealthy = [
            f"{count} {name}"
            for name, count in (*self.frames.items(), *self.logs.items())
            if name.startswith(("MsgOutput", "MsgSend")) or name == "recovery.re_served"
        ]
        counted = sum(self.frames.values())
        if counted != frames_in:
            unhealthy.append(f"{counted} frames counted, hub 0 read {frames_in}")
        return "\n".join(out) + "\n", unhealthy


class _Recorded:
    """A worker's hub socket that keeps every chunk ``recv`` returned, and
    which ``sendall`` (counted from 1) failed, if one did: a replica that
    loses its hub mid-handler stops there, and so must its replay."""

    def __init__(self, sock, chunks: list[bytes]) -> None:
        self._sock, self._chunks = sock, chunks
        self.writes = 0
        self.failed_write: int | None = None

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self._chunks.append(data)
        return data

    def sendall(self, data) -> None:
        self.writes += 1
        try:
            self._sock.sendall(data)
        except OSError:
            self.failed_write = self.writes
            raise

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


class _Discard:
    """The replay's hub socket: whatever the replica says goes nowhere, and
    the write that failed in the live run fails here."""

    def __init__(self, failed_write: int | None) -> None:
        self._writes, self._failed_write = 0, failed_write

    def sendall(self, data) -> None:
        self._writes += 1
        if self._writes == self._failed_write:
            raise OSError("the live replica's hub was gone at this write")


def _replay_once(
    worker, chunks: list[bytes], failed_write: int | None, wal_root: str
) -> tuple[float, int]:
    """Drive a pristine ``worker`` with the recorded inbound chunks; CPU
    seconds of decode + handlers + encode + WAL, and messages sent."""
    from repro.net.wire import FrameDecoder

    worker.socks = [_Discard(failed_write)]
    durability = getattr(worker.protocol, "durability", None)
    if durability is not None:  # the live replica owns the inherited WAL
        config = dataclasses.replace(durability.config, root=wal_root)
        worker.protocol.durability = config.node(worker.pid)
    worker._hello_sent, worker._sent = True, 0
    decoder = FrameDecoder(worker.max_frame)
    started = time.process_time()
    try:
        for chunk in chunks:
            for msg in decoder.feed(chunk):
                worker._dispatch(msg)
    except OSError:
        pass  # the recorded failed write: the live replica exited here too
    return time.process_time() - started, worker._sent


def _replay_forks(worker, capture_path: str, result_path: str, live_sent: int) -> None:
    """The pristine copy's whole life: fork ``REPLAYS`` replays one after
    another, report the cheapest next to the live replica's count."""
    with open(capture_path, "rb") as fh:
        chunks, failed_write = pickle.load(fh)
    runs: list[tuple[float, int]] = []
    for attempt in range(REPLAYS):
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                cpu, sent = _replay_once(
                    worker, chunks, failed_write, f"{capture_path}.wal{attempt}"
                )
                os.write(write_fd, json.dumps([cpu, sent]).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            reported = fh.read()
        os.waitpid(child, 0)
        if reported:
            runs.append(tuple(json.loads(reported)))
    frames = sum(len(chunk) for chunk in chunks)
    with open(f"{result_path}.tmp", "w") as fh:
        json.dump({"live_sent": live_sent, "runs": runs, "inbound_bytes": frames}, fh)
    os.replace(f"{result_path}.tmp", result_path)  # the bench process polls for it


def _install_replay(NodeWorker, tmp: str) -> str:
    """Wrap ``NodeWorker.run`` (forked workers inherit it) so replica
    ``NODE_PID`` leaves a pristine copy behind and records its inbound
    stream; returns the path the copy writes its result to."""
    worker_run = NodeWorker.run
    capture_path = os.path.join(tmp, "inbound.pickle")
    result_path = os.path.join(tmp, "replay.json")

    def recording_run(self, recv_timeout: float = 60.0) -> int:
        if self.pid != NODE_PID:
            return worker_run(self, recv_timeout)
        read_fd, write_fd = os.pipe()
        if os.fork() == 0:
            try:
                os.close(write_fd)
                for sock in self.socks:
                    sock.close()  # or the hub never sees the live replica's EOF
                with os.fdopen(read_fd, "rb") as fh:
                    live_sent = fh.read()  # returns when the live replica is done
                if live_sent:
                    _replay_forks(self, capture_path, result_path, int(live_sent))
            finally:
                os._exit(0)
        os.close(read_fd)
        chunks: list[bytes] = []
        (hub,) = self.socks = [_Recorded(sock, chunks) for sock in self.socks]
        try:
            return worker_run(self, recv_timeout)
        finally:
            failed_write = hub.failed_write and hub.failed_write - 1  # less the Hello
            with open(capture_path, "wb") as fh:
                pickle.dump((chunks, failed_write), fh)
            os.write(write_fd, str(self._sent).encode())
            os.close(write_fd)

    NodeWorker.run = recording_run
    return result_path


def _await_replay(result_path: str) -> str:
    """The replay's one-line verdict; exits non-zero when the replay did
    not send what the live replica sent."""
    deadline = time.monotonic() + REPLAY_TIMEOUT
    while not os.path.exists(result_path):
        if time.monotonic() > deadline:
            sys.exit(f"no replay result after {REPLAY_TIMEOUT:g} s")
        time.sleep(0.1)
    with open(result_path) as fh:
        result = json.load(fh)
    runs, live_sent = result["runs"], result["live_sent"]
    if len(runs) < REPLAYS:
        sys.exit(f"only {len(runs)} of {REPLAYS} replay forks reported")
    best = min(cpu for cpu, _ in runs)
    sent = {count for _, count in runs}
    line = (
        f"replay of replica {NODE_PID}: best of {REPLAYS} forks {best * 1e3:.1f} ms CPU "
        f"(all: {' '.join(f'{cpu * 1e3:.1f}' for cpu, _ in runs)}), "
        f"{result['inbound_bytes']} bytes in, {sorted(sent)} messages sent, "
        f"live replica sent {live_sent}"
    )
    if sent != {live_sent}:
        sys.exit(line + "\nthe replay is not the live replica: counts differ")
    return line


def _serve_in_main_thread(workloads) -> None:
    """Swap the two threads of a ``pipeline`` trial.  ``run_trial`` starts
    the frontend session (and with it the hub loop) on a helper thread and
    runs the client in the main one — where the profilers look.  Here the
    "thread" it starts only remembers the session, and the client's
    ``submit_all`` moves itself to a real helper thread, ``SIGPROF``
    blocked, then serves the remembered session in the caller's thread."""
    sessions: list = []
    socket_client = workloads.SocketClient

    class Deferred:
        def __init__(self, target, daemon=None) -> None:
            self._target = target

        def start(self) -> None:
            sessions.append(self._target)

        def join(self, timeout=None) -> None:
            pass

    class ThreadedClient(socket_client):
        def submit_all(self, commands):
            outcomes: list = []

            def client() -> None:
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
                outcomes.append(socket_client.submit_all(self, commands))

            helper = threading.Thread(target=client, daemon=True)
            helper.start()
            sessions.pop()()
            helper.join(workloads.SESSION_TIMEOUT)
            return outcomes[0] if outcomes else None

    workloads.threading = type("threading", (), {"Thread": Deferred})
    workloads.SocketClient = ThreadedClient


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("hub0", "node", "sim"))
    parser.add_argument("--label", choices=("before", "after"))
    parser.add_argument(
        "--workload",
        choices=("floor_star", "pipeline_star", "sim_core"),
        default="floor_star",
    )
    parser.add_argument(
        "--sample", action="store_true", help="ITIMER_PROF stack samples, not cProfile"
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="no profile: re-run replica 3 offline on its recorded inbound bytes",
    )
    parser.add_argument(
        "--census",
        action="store_true",
        help="no profile: hub 0's inbound frames by record kind and log records by name",
    )
    parser.add_argument(
        "--commands", type=int, default=COMMANDS, help="trial size (more commands, more samples)"
    )
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    args = parser.parse_args()
    if args.census and (args.role or args.sample or args.label or args.replay):
        parser.error("--census goes alone")
    if args.replay and (args.role != "node" or args.sample or args.label):
        parser.error("--replay goes with --role node alone")
    if not args.census and args.role is None:
        parser.error("--role is required for a profile or a replay")
    if not (args.replay or args.census) and args.label is None:
        parser.error("--label is required for a profile")
    if (args.role == "sim") != (args.workload == "sim_core"):
        parser.error("--role sim profiles --workload sim_core, and nothing else does")
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
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="profile-net-") as tmp:
        trial_root = os.path.join(tmp, "trial")
        if args.census:
            census = Census()
            trial = workloads.run_trial(
                workload, SEED, args.commands, trial_root, extra_sink=census
            )
            if trial.problems or trial.digest is None:
                sys.exit(f"the counted trial failed: {trial.problems}")
            text, unhealthy = census.report(
                trial.slots,
                trial.result.hub_frames_in,
                f"census of hub 0: {args.workload}, seed {SEED}, {args.commands} "
                f"commands, checkout {commit}",
            )
            print(text)
            if unhealthy:
                sys.exit("a healthy run paid for more than consensus: " + "; ".join(unhealthy))
            return
        if args.replay:
            result_path = _install_replay(NodeWorker, tmp)
            trial = workloads.run_trial(workload, SEED, args.commands, trial_root)
            if trial.problems or trial.digest is None:
                sys.exit(f"the recorded trial failed: {trial.problems}")
            print(f"{args.workload}, seed {SEED}, {args.commands} commands, checkout {commit}")
            print(_await_replay(result_path))
            return
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
        if args.role in ("hub0", "sim"):
            if workload.kind == "pipeline":
                _serve_in_main_thread(workloads)
            trial = profile.runcall(
                workloads.run_trial, workload, SEED, args.commands, trial_root
            )
            profile.dump_stats(f"{stats_path}.{args.role}")
        else:
            trial = workloads.run_trial(workload, SEED, args.commands, trial_root)
        if trial.problems or trial.digest is None:
            sys.exit(f"the profiled trial failed: {trial.problems}")
        stats = trial.result.stats
        if args.role == "hub0":
            who = "hub 0 (bench process)"
        elif args.role == "sim":
            who = "the simulator (bench process)"
        elif args.sample:
            who = "all replicas (forked workers)"
        else:
            who = f"replica {NODE_PID} (forked worker)"
        how = "under cProfile"
        if args.sample:
            how = f"sampled (ITIMER_PROF, {SAMPLE_EVERY * 1e3:g} ms)"
        if args.role == "sim":
            traffic = f"{stats.messages_delivered} deliveries"
        else:
            traffic = (
                f"{trial.result.hub_frames} frames to nodes, "
                f"{getattr(trial.result, 'hub_frames_in', 'n/a')} frames from nodes"
            )
        header = (
            f"{who} {how}: {args.workload}, seed {SEED}, {args.commands} commands, "
            f"{stats.messages_sent} routed messages, {traffic}, "
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
