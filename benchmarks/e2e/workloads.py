"""The five workloads: input generation, one trial of each, output checks.

Every workload runs ``n=7, t=1`` (the smallest non-trivial DEX
configuration, ``n > 6t``), 4 shards, ``max_batch=4``, ``contention=0.3``,
32 keys, binary codec.  Load is one process, one client connection, one
session: a closed batch — the client streams the whole trial, half-closes
and waits for the replies, the only mode ``FrontendServer`` has.  The
program receives only the commands generated here from ``--seed``.

Trial sizes are fixed per workload so that one timed trial takes at least
five seconds on the 2-core box and finishes well inside the 30 s
``Frontend.run()`` service timeout that ``FrontendServer._session`` uses.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import resource
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from sink import LeanSink

from repro.durable.recovery import DurabilityConfig
from repro.engine.events import EventSink, combine
from repro.engine.faults import CrashRecover
from repro.frontend.api import Frontend
from repro.frontend.socket import ClientReply, FrontendServer, SocketClient
from repro.mesh.topology import MeshTopology
from repro.shard.service import ShardedService

N, T, SHARDS, MAX_BATCH, CONTENTION, KEYSPACE = 7, 1, 4, 4, 0.3, 32
ZIPF_ALPHA = 1.2
QUEUE_BOUND = 16
SNAPSHOT_EVERY = 8
WARMUP_COMMANDS = 128
#: the replica ``sparse_recover`` SIGKILLs, when, and for how long.
CRASH_PID, CRASH_AT, RESTART_AFTER = 2, 2.0, 0.3
#: socket and thread-join timeout; the service's own run timeout is 30 s.
SESSION_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "pipeline" (client socket -> frontend -> net), "floor", "sim"
    commands: int  # per timed trial
    tick_every: int = 16
    crash: bool = False
    hubs: int = 1
    zipf: bool = False
    #: timed-out trials a run may discard and repeat before they count as
    #: failed operations (see ``run_trial_retrying``); eight more 7-second
    #: trials still end well inside the 180 s a run may take.
    retries: int = 0
    #: modules a fresh interpreter imports before it can run this workload
    #: (the lazily imported cluster modules included): the import part of
    #: ``setup_s``.
    imports: tuple[str, ...] = ()


_PIPELINE_IMPORTS = (
    "repro.frontend.socket",
    "repro.shard.service",
    "repro.durable.recovery",
    "repro.net.cluster",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pipeline_star",
            "whole path: client socket, admission, full batches, one hub with "
            "0.5 ms delay, WAL on; hub-loop, codec and WAL changes all show",
            "pipeline",
            1024,
            imports=_PIPELINE_IMPORTS,
        ),
        Workload(
            "floor_star",
            "hardware floor: run_net with no client socket, admission, WAL or "
            "injected delay; frontend and durable changes must leave it unmoved",
            "floor",
            1280,
            imports=("repro.shard.service", "repro.net.cluster"),
        ),
        Workload(
            "pipeline_mesh2_zipf",
            "pipeline_star through MeshTopology(hubs=2) with zipf keys: shard-"
            "steered sends, peek_shard routing, cross-hub reordering; a star "
            "speed-up that costs the mesh shows",
            "pipeline",
            1280,
            hubs=2,
            zipf=True,
            retries=8,
            imports=_PIPELINE_IMPORTS + ("repro.mesh.cluster",),
        ),
        Workload(
            "sparse_recover",
            "singleton batches (4x slots, WAL records and messages per command) "
            "and one replica SIGKILLed, replayed from disk and caught up",
            "pipeline",
            320,
            tick_every=4,
            crash=True,
            imports=_PIPELINE_IMPORTS,
        ),
        Workload(
            "sim_core",
            "single process on a virtual clock: only core/conditions/shard/"
            "engine/sim work, counts repeat exactly; net changes predict no change",
            "sim",
            4096,
            imports=("repro.shard.service",),
        ),
    )
}


# -- inputs ---------------------------------------------------------------------------


def make_commands(seed: int, count: int, zipf: bool = False) -> list[tuple[str, int]]:
    """``count`` distinct ``(key, op)`` pairs over keys drawn uniformly, or
    with weight ``1 / rank ** ZIPF_ALPHA``."""
    rng = random.Random(seed)
    if not zipf:
        return [(f"k{rng.randrange(KEYSPACE)}", op) for op in range(count)]
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(KEYSPACE)]
    ranks = rng.choices(range(KEYSPACE), weights, k=count)
    return [(f"k{rank}", op) for op, rank in enumerate(ranks)]


def stream_crc32(commands: list[tuple[str, int]]) -> int:
    return zlib.crc32("\n".join(f"{key} {op}" for key, op in commands).encode())


# -- one trial ------------------------------------------------------------------------


@dataclass
class Trial:
    commands: list[tuple[str, int]]
    sink: LeanSink
    build_s: float = 0.0  # service / frontend / WAL directory / listener
    wall_s: float = 0.0  # client connect -> last reply (or the run_* call)
    cpu_self_s: float = 0.0  # bench process: hub 0, frontend thread, client
    cpu_children_s: float = 0.0  # reaped children: forked nodes
    run_wall_s: float = 0.0  # the engine's own wall (or virtual end time)
    digest: tuple | None = None
    result: Any = None  # the engine's run result
    shed_share: float = 0.0  # submissions the admission queues rejected
    wal_root: str | None = None
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    root_span: int | None = None
    #: ``boxspeed.slowness`` over the probes around the trial (timed runs).
    slowness: float = 1.0

    @property
    def spawn_s(self) -> float:
        """Run start to the first slot opening at the hub: fork, connect,
        Hello, Start and the nodes' ``on_start`` (0 on the simulator)."""
        return self.sink.first_open or 0.0

    @property
    def slots(self) -> int:
        return sum(len(batches) for _, batches in self.digest or ())


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _span(tracer: Any, name: str, parent: int | None = None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, parent)


def _service(
    w: Workload, seed: int, sink: EventSink, root: str, snapshot_every: int
) -> ShardedService:
    pipeline = w.kind == "pipeline"
    return ShardedService(
        n=N,
        t=T,
        shards=SHARDS,
        max_batch=MAX_BATCH,
        contention=CONTENTION,
        keyspace=KEYSPACE,
        seed=seed,
        engine="sim" if w.kind == "sim" else "net",
        codec="binary",
        event_sink=sink,
        mesh=MeshTopology(hubs=w.hubs) if w.hubs > 1 else None,
        durability=(
            DurabilityConfig(
                os.path.join(root, "wal"), fsync=False, snapshot_every=snapshot_every
            )
            if pipeline
            else None
        ),
        faults=(
            {CRASH_PID: CrashRecover(at=CRASH_AT, restart_after=RESTART_AFTER)}
            if w.crash
            else None
        ),
    )


def run_trial(
    w: Workload,
    seed: int,
    count: int,
    root: str,
    extra_sink: EventSink | None = None,
    tracer: Any = None,
    snapshot_every: int = SNAPSHOT_EVERY,
) -> Trial:
    """One trial under ``root`` (a fresh directory).  The bench process does
    nothing else while the timed region runs."""
    commands = make_commands(seed, count, w.zipf)
    trial = Trial(commands, LeanSink())
    os.makedirs(root)
    built = time.perf_counter()
    sink = combine(trial.sink, extra_sink)
    service = _service(w, seed, sink, root, snapshot_every)
    if w.kind == "pipeline":
        trial.wal_root = os.path.join(root, "wal")
        path = os.path.join(root, "fe.sock")
        server = FrontendServer(
            lambda: Frontend(service, queue_bound=QUEUE_BOUND, policy="block"),
            path=path,
            tick_every=w.tick_every,
        )
        server.bind()
        client = SocketClient(path=path, timeout=SESSION_TIMEOUT)
    else:
        arrivals = [(0, ("set", key, op)) for key, op in commands]
    trial.build_s = time.perf_counter() - built
    gc.collect()
    cpu_before = _cpu()
    outcomes = None
    with _span(tracer, "session") as trial.root_span:
        started = time.perf_counter()
        if w.kind == "pipeline":
            with _span(tracer, "client.submit_all") as client_span:

                def serve() -> None:
                    try:
                        with _span(tracer, "frontend.server_session", client_span):
                            server.serve_once(SESSION_TIMEOUT)
                    except Exception as exc:  # surfaces as failed operations
                        trial.problems.append(f"server session died: {exc!r}")

                thread = threading.Thread(target=serve, daemon=True)
                thread.start()
                outcomes = client.submit_all(commands)
                trial.wall_s = time.perf_counter() - started
            thread.join(SESSION_TIMEOUT)
            server.close()
            if server.last_report is not None:
                trial.shed_share = server.last_report.shed_rate
            report = getattr(server.last_report, "shard", None)
        elif w.kind == "floor":
            deployment = service.deployment(arrivals, sink)
            result = deployment.run_net(
                timeout=SESSION_TIMEOUT, mean_delay=0.0, link_plan=None
            )
            trial.wall_s = time.perf_counter() - started
            report = None
            trial.result = result
            if result.correct_decisions and result.agreement_holds():
                trial.digest = result.decided_value
        else:
            report = service.run_stream(arrivals)
            trial.wall_s = time.perf_counter() - started
    cpu_after = _cpu()
    trial.cpu_self_s = cpu_after[0] - cpu_before[0]
    trial.cpu_children_s = cpu_after[1] - cpu_before[1]
    states = None
    if report is not None:
        trial.result, trial.digest, states = report.result, report.digest, report.states
        if report.divergence:
            trial.problems.append("ShardReport.divergence")
    elif w.kind == "pipeline":
        trial.problems.append("server session produced no report")
    if trial.result is not None:
        trial.run_wall_s = getattr(trial.result, "wall_seconds", None) or getattr(
            trial.result, "end_time", 0.0
        )
    _check_outputs(trial, outcomes, states)
    return trial


def run_trial_retrying(
    w: Workload, seed: int, count: int, root: str, discarded: list[str], **kwargs: Any
) -> Trial:
    """``run_trial``, except that a trial whose run timed out is discarded
    (its cause appended to ``discarded``, shared over the run) and repeated
    on the same inputs while the workload's ``retries`` last.  Only
    ``pipeline_mesh2_zipf`` has any: at this commit the 2-hub mesh loses a
    replica in about one trial in ten (README.md), which ends the run
    without replies; the benchmark measures the trials that complete and
    prints how many did not."""
    attempt = 0
    while True:
        trial = run_trial(w, seed, count, f"{root}.{attempt}", **kwargs)
        if not getattr(trial.result, "timed_out", False) or len(discarded) >= w.retries:
            return trial
        discarded.append(f"{root}: " + "; ".join(trial.problems))
        del trial  # or the repeat's forked nodes inherit its result graph
        attempt += 1


# -- output checks --------------------------------------------------------------------


def _check_outputs(
    trial: Trial,
    outcomes: dict[int, Any] | None,
    states: dict[int, dict[str, int]] | None,
) -> None:
    """A command is failed if it got no ``ClientReply`` at its agreed place,
    and every command is failed if the run timed out, replicas' digests
    diverge, or the applied KV state differs from a sequential replay of
    the agreed digest."""
    commands, result, problems = trial.commands, trial.result, trial.problems
    if result is None:
        problems.append("no run result")
    else:
        if getattr(result, "timed_out", False):
            problems.append("run timed out")
        decided = result.correct_decisions
        if len(decided) != N - len(result.faulty):
            problems.append(f"only {len(decided)} correct replicas decided")
        if not result.agreement_holds():
            problems.append("replicas hold different digests")
    if trial.digest is None:
        problems.append("no agreed digest")
    if problems:
        trial.failed = len(commands)
        return
    placed: dict[tuple, tuple[int, int]] = {}
    replay: dict[int, dict[str, int]] = {}
    for shard, batches in trial.digest:
        store = replay.setdefault(shard, {})
        for slot, batch in enumerate(batches):
            for command in batch:
                if command in placed:
                    problems.append(f"{command!r} applied twice")
                placed[command] = (shard, slot)
                store[command[1]] = command[2]
    expected = {("set", key, op): rid for rid, (key, op) in enumerate(commands)}
    if set(placed) - set(expected):
        problems.append("digest holds commands nobody submitted")
    if states is not None and states != replay:
        problems.append("applied KV state differs from the replayed digest")
    if problems:
        trial.failed = len(commands)
        return
    for command, rid in expected.items():
        where = placed.get(command)
        if where is None:
            trial.failed += 1
        elif outcomes is not None:
            reply = outcomes.get(rid)
            if not isinstance(reply, ClientReply) or (reply.shard, reply.slot) != where:
                trial.failed += 1
    if trial.failed:
        problems.append(f"{trial.failed} commands without a reply at their agreed slot")
