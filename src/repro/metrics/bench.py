"""Hot-path benchmark suite: quantify the incremental engine.

Importable benchmark logic behind ``python -m repro bench`` and
``benchmarks/run_bench.py``.  Three measurement groups:

* **instance scaling** (the E14 axis) — wall-clock per simulated consensus
  instance as ``n`` grows, the end-to-end number the incremental engine and
  the simulator hot path are accountable for;
* **predicate microbenchmark** — per-arrival cost of re-evaluating the DEX
  one-step predicate via :class:`~repro.conditions.incremental.ViewStats`
  (O(1) amortized) versus rebuilding a batch
  :class:`~repro.conditions.views.View` per arrival (O(n));
* **coverage enumeration** — exact ``V^n`` coverage via the
  multiset-weighted enumerator (``C(n+|V|-1, |V|-1)`` checks) versus brute
  force (``|V|^n`` checks), at a size where both run, plus the multiset
  enumerator alone at ``n = 31`` where brute force is out of reach.

Results are written as one JSON document (``BENCH_hotpath.json``) with the
commit hash, so regressions are diffable across commits.

The socket-engine group (``bench --engine net`` → ``BENCH_net.json``)
measures the E18 axis instead: fast-path decision rate, throughput and
decision latency over real sockets versus the simulator at the same
``(n, t)``, computed entirely from streaming
:class:`~repro.engine.events.EventStats` sinks folded into a
:class:`~repro.metrics.collectors.StreamAggregate` — no run results are
retained.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import time
from typing import Any, Sequence

from ..analysis.coverage import exact_space_coverage, pair_coverage
from ..conditions.frequency import FrequencyPair
from ..conditions.generators import all_vectors, multiset_vectors
from ..conditions.incremental import ViewStats
from ..conditions.views import View
from ..harness import Scenario, dex_freq
from ..workloads.inputs import split, unanimous

#: Default instance sizes for the scaling group (the E14 axis; every size
#: keeps t = (n-1)//6 ≥ 1 so the DEX resilience n > 6t holds).
DEFAULT_SIZES = (7, 13, 19, 25, 31)

#: the ``bench --smoke`` sizes: enough to catch a broken hot path in CI
#: without paying for the full scaling curve.
SMOKE_SIZES = (7, 13)


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock of ``repeats`` calls — the least-noise estimator
    for a deterministic workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _commit_hash() -> str | None:
    """Current git commit, or None outside a repository / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def bench_instance_scaling(
    sizes: Sequence[int] = DEFAULT_SIZES, repeats: int = 3, seeds: Sequence[int] = (1, 2, 3)
) -> list[dict[str, Any]]:
    """Seconds per simulated dex-freq instance (unanimous inputs) per ``n``."""
    rows = []
    for n in sizes:
        inputs = unanimous(1, n)

        def run_all() -> None:
            for seed in seeds:
                Scenario(dex_freq(), inputs, seed=seed).run()

        run_all()  # warm-up: imports, caches
        per_run = _best_of(repeats, run_all) / len(seeds)
        sample = Scenario(dex_freq(), inputs, seed=seeds[0]).run()
        rows.append(
            {
                "n": n,
                "seconds_per_run": per_run,
                "messages_sent": sample.stats.messages_sent,
                "max_correct_step": sample.max_correct_step,
            }
        )
    return rows


def bench_predicate(n: int = 31, t: int = 5, repeats: int = 5) -> dict[str, Any]:
    """Per-arrival predicate cost: incremental ViewStats vs batch View.

    Replays the same arrival order (process ``i`` proposes ``i % 2``) both
    ways; the batch side rebuilds the View and asks for the frequency gap on
    every arrival, which is what the protocol layer did before the
    incremental engine.
    """
    pair = FrequencyPair(n, t)
    arrivals = [(i, i % 2) for i in range(n)]

    def incremental() -> None:
        stats = ViewStats(n)
        for who, value in arrivals:
            stats.set_entry(who, value)
            if stats.known >= n - t:
                pair.p1_incremental(stats)

    def batch() -> None:
        entries: list[Any] = [None] * n
        known = 0
        for who, value in arrivals:
            entries[who] = value
            known += 1
            if known >= n - t:
                view = View(v for v in entries if v is not None)
                view.frequency_gap() > 4 * t

    incremental_s = _best_of(repeats, lambda: [incremental() for _ in range(100)]) / 100
    batch_s = _best_of(repeats, lambda: [batch() for _ in range(100)]) / 100
    return {
        "n": n,
        "t": t,
        "incremental_seconds_per_instance": incremental_s,
        "batch_seconds_per_instance": batch_s,
        "speedup": batch_s / incremental_s if incremental_s else None,
    }


def bench_coverage(repeats: int = 3) -> dict[str, Any]:
    """Exact-coverage enumeration: multiset weights vs brute force."""
    small = FrequencyPair(13, 2)
    values = [1, 2]

    def brute() -> None:
        vectors = list(all_vectors(values, small.n))
        pair_coverage(small, vectors, range(small.t + 1))

    def multiset() -> None:
        exact_space_coverage(small, values, range(small.t + 1))

    brute_s = _best_of(repeats, brute)
    multiset_s = _best_of(repeats, multiset)

    big = FrequencyPair(31, 5)
    big_s = _best_of(repeats, lambda: exact_space_coverage(big, values, range(big.t + 1)))
    return {
        "small": {
            "n": small.n,
            "values": len(values),
            "brute_force_vectors": len(values) ** small.n,
            "multiset_vectors": sum(1 for _ in multiset_vectors(values, small.n)),
            "brute_force_seconds": brute_s,
            "multiset_seconds": multiset_s,
            "speedup": brute_s / multiset_s if multiset_s else None,
        },
        "large": {
            "n": big.n,
            "values": len(values),
            "brute_force_vectors": len(values) ** big.n,
            "multiset_vectors": sum(1 for _ in multiset_vectors(values, big.n)),
            "multiset_seconds": big_s,
        },
    }


def run_hotpath_bench(
    sizes: Sequence[int] = DEFAULT_SIZES, repeats: int = 3
) -> dict[str, Any]:
    """Run all three groups and assemble the report document."""
    return {
        "benchmark": "hotpath",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "instance_scaling": bench_instance_scaling(sizes=sizes, repeats=repeats),
        "predicate": bench_predicate(repeats=max(repeats, 3)),
        "coverage": bench_coverage(repeats=repeats),
    }


#: Workload mix of the socket-engine bench (the E18 axis): the one-step
#: condition holds for ``unanimous`` and ``thin-split`` but real timing
#: decides whether each node's first n−t arrivals witness it.
NET_WORKLOADS: tuple[tuple[str, Any], ...] = (
    ("unanimous", lambda n: unanimous(1, n)),
    ("thin-split", lambda n: split(1, 2, n, 1)),
    ("contended", lambda n: split(1, 2, n, n // 2)),
)


def bench_codec_ablation(
    n: int = 7, runs: int = 5, timeout: float = 20.0
) -> dict[str, Any]:
    """Payload-codec economy: struct-packed binary vs pickle, same runs.

    The contended workload again, same seeds per cell; the only knob is
    :class:`~repro.harness.Scenario`'s ``codec``.  Binary keeps consensus
    payloads opaque through the hub (zero-decode relay) and struct-packs
    the control plane, so the cell reports both the rate (hub messages per
    wall second) and the size (hub bytes per frame) axes.
    """
    inputs = split(1, 2, n, n // 2)
    cells: dict[str, dict[str, Any]] = {}
    for codec in ("pickle", "binary"):
        frames = 0
        hub_bytes = 0
        delivered = 0
        wall = 0.0
        for seed in range(1, runs + 1):
            scenario = Scenario(dex_freq(), inputs, seed=seed, codec=codec)
            result = scenario.run_net(timeout=timeout)
            frames += result.hub_frames
            hub_bytes += result.hub_bytes
            delivered += result.stats.messages_delivered
            wall += result.wall_seconds
        cells[codec] = {
            "runs": runs,
            "hub_frames": frames,
            "hub_bytes": hub_bytes,
            "messages_delivered": delivered,
            "wall_seconds": round(wall, 4),
            "hub_msgs_per_s": round(delivered / wall, 1) if wall else 0.0,
            "bytes_per_frame": round(hub_bytes / frames, 1) if frames else 0.0,
        }
    pickle_rate = cells["pickle"]["hub_msgs_per_s"]
    binary_bpf = cells["binary"]["bytes_per_frame"]
    cells["binary_vs_pickle"] = {
        "msgs_per_s_speedup": (
            round(cells["binary"]["hub_msgs_per_s"] / pickle_rate, 2)
            if pickle_rate
            else None
        ),
        "bytes_per_frame_ratio": (
            round(cells["pickle"]["bytes_per_frame"] / binary_bpf, 2)
            if binary_bpf
            else None
        ),
    }
    return cells


def run_net_bench(
    n: int = 7, runs: int = 10, timeout: float = 20.0
) -> dict[str, Any]:
    """Fast-path rate + throughput/latency: real sockets vs the simulator.

    Every run streams its events into a fresh
    :class:`~repro.engine.events.EventStats` sink; per-engine
    :class:`~repro.metrics.collectors.StreamAggregate` collectors fold the
    counters, so the bench holds O(workloads × engines) state no matter
    how many messages cross the wire.
    """
    from .collectors import StreamAggregate

    workloads = []
    for name, make_inputs in NET_WORKLOADS:
        inputs = make_inputs(n)
        aggregates = {
            engine: StreamAggregate(label=f"{name}/{engine}")
            for engine in ("sim", "net")
        }
        for engine, aggregate in aggregates.items():
            for seed in range(1, runs + 1):
                stats = aggregate.new_sink()
                scenario = Scenario(
                    dex_freq(), inputs, seed=seed, engine=engine, event_sink=stats
                )
                if engine == "net":
                    result = scenario.run_net(timeout=timeout)
                else:
                    result = scenario.run()
                aggregate.add_stats(
                    stats,
                    wall_seconds=getattr(result, "wall_seconds", None),
                    timed_out=getattr(result, "timed_out", False),
                )
        workloads.append(
            {
                "workload": name,
                "inputs": inputs,
                "sim": aggregates["sim"].summary(),
                "net": aggregates["net"].summary(),
            }
        )
    return {
        "benchmark": "net",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "n": n,
        "t": (n - 1) // 6,
        "runs_per_workload": runs,
        "workloads": workloads,
        "codec_ablation": bench_codec_ablation(
            n=n, runs=min(runs, 5), timeout=timeout
        ),
    }


def write_net_bench(
    out: pathlib.Path | str | None = None,
    n: int = 7,
    runs: int = 10,
    timeout: float = 20.0,
) -> pathlib.Path:
    """Run the socket-engine bench and persist ``BENCH_net.json``."""
    report = run_net_bench(n=n, runs=runs, timeout=timeout)
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_net.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# -- sharded-service bench (the E19 axis) --------------------------------------------

#: Shard counts of the scaling sweep (same command count per cell, so more
#: shards = more instances deciding concurrently in the same virtual time).
SHARD_COUNTS = (1, 2, 4)

#: Key-skew models swept per shard count (skew drives contention, and
#: contention drives the one-step rate).
SHARD_SKEWS = ("uniform", "zipf")


def _mean_numeric(rows: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Field-wise mean of the numeric entries of same-shaped dicts."""
    if not rows:
        return {}
    out: dict[str, Any] = {}
    for key, value in rows[0].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[key] = value
            continue
        out[key] = round(sum(float(r[key]) for r in rows) / len(rows), 4)
    return out


def run_shard_bench(
    n: int = 7,
    shards: Sequence[int] = SHARD_COUNTS,
    count: int = 48,
    runs: int = 3,
    contention: float = 0.3,
    timeout: float = 30.0,
    net_shards: Sequence[int] | None = (1, 2),
    net_count: int = 12,
    net_runs: int = 1,
) -> dict[str, Any]:
    """The E19 sweep: sharded-service throughput/latency/one-step rate.

    Per cell (engine × skew × shard count) the same seeded client stream
    runs through :class:`~repro.shard.service.ShardedService`; cell rows
    are field-wise means over ``runs`` seeds of the per-shard and
    aggregate summaries the shard metrics fold from the event stream.
    ``scaling`` extracts the headline: aggregate commands-per-time versus
    shard count, per skew, on the simulator (virtual time) and — for the
    smaller net sweep — wall time.

    Args:
        n: replica count (t is the frequency pair's max).
        shards: shard counts of the simulator sweep.
        count: commands per simulator run.
        runs: seeds per simulator cell.
        contention: per-slot contention probability of the sweep.
        timeout: per-run deadline (net cells).
        net_shards: shard counts of the socket-engine sweep (``None`` or
            empty = skip the net cells entirely).
        net_count, net_runs: the net sweep's smaller stream and seed count.
    """
    from ..shard.service import ShardedService

    cells: list[dict[str, Any]] = []
    scaling: dict[str, dict[str, dict[str, float]]] = {}

    def sweep(engine: str, sweep_shards: Sequence[int], sweep_count: int,
              sweep_runs: int) -> None:
        for skew in SHARD_SKEWS:
            for shard_count in sweep_shards:
                reports = []
                for seed in range(1, sweep_runs + 1):
                    service = ShardedService(
                        n=n,
                        shards=shard_count,
                        contention=contention,
                        skew=skew,
                        seed=seed,
                        engine=engine,
                    )
                    reports.append(service.run(count=sweep_count, timeout=timeout))
                divergences = sum(1 for r in reports if r.divergence)
                aggregate = _mean_numeric([r.aggregate for r in reports])
                per_shard = [
                    _mean_numeric([r.per_shard[s] for r in reports])
                    for s in range(shard_count)
                ]
                cells.append(
                    {
                        "engine": engine,
                        "skew": skew,
                        "shards": shard_count,
                        "count": sweep_count,
                        "runs": sweep_runs,
                        "divergences": divergences,
                        "aggregate": aggregate,
                        "per_shard": per_shard,
                    }
                )
                scaling.setdefault(engine, {}).setdefault(skew, {})[
                    str(shard_count)
                ] = aggregate.get("throughput_cmds", 0.0)

    sweep("sim", shards, count, runs)
    if net_shards:
        sweep("net", net_shards, net_count, net_runs)
    return {
        "benchmark": "shard",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "n": n,
        "t": max((n - 1) // 6, 0),
        "contention": contention,
        "cells": cells,
        "scaling": scaling,
    }


def write_shard_bench(
    out: pathlib.Path | str | None = None,
    n: int = 7,
    shards: Sequence[int] = SHARD_COUNTS,
    count: int = 48,
    runs: int = 3,
    smoke: bool = False,
) -> pathlib.Path:
    """Run the sharded-service bench and persist ``BENCH_shard.json``.

    ``smoke`` shrinks everything (shards 1–2, short stream, one seed, sim
    plus one tiny net cell) to CI scale.
    """
    if smoke:
        report = run_shard_bench(
            n=n, shards=(1, 2), count=12, runs=1,
            net_shards=(2,), net_count=8, net_runs=1,
        )
    else:
        report = run_shard_bench(n=n, shards=shards, count=count, runs=runs)
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_shard.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# -- mesh bench (the E23 axis) --------------------------------------------------------

#: Hub-group counts of the mesh ablation.  One hub is the E19 baseline
#: (the star topology with its single-hub ceiling); two and four split the
#: shard space across extra hub processes.
MESH_HUB_COUNTS = (1, 2, 4)

#: Payload codecs swept per mesh cell: binary keeps shard attribution on
#: raw bytes (``peek_shard``) so data hubs never decode payloads; pickle
#: forces a decode at the owning hub and shows what that costs.
MESH_CODECS = ("binary", "pickle")


def run_mesh_bench(
    n: int = 7,
    shards: int = 4,
    hubs: Sequence[int] = MESH_HUB_COUNTS,
    count: int = 96,
    runs: int = 3,
    contention: float = 0.3,
    timeout: float = 60.0,
    codecs: Sequence[str] = MESH_CODECS,
    skews: Sequence[str] = SHARD_SKEWS,
) -> dict[str, Any]:
    """The E23 ablation: shard-workload net throughput vs hub-group count.

    Per cell (codec × skew × hub count) the same seeded client stream runs
    through :class:`~repro.shard.service.ShardedService` on the socket
    engine, with the transport shaped by
    :class:`~repro.mesh.topology.MeshTopology` — one hub is exactly the
    E19 star cluster, more hubs split the shard space across extra hub
    processes with hub-to-hub relay for stray frames.  Cells carry the
    per-hub frame/byte counters from the run results, so the report shows
    not just the throughput curve but *where* the frames went.

    ``scaling`` extracts the headline: aggregate commands per wall second
    versus hub count, per codec and skew.  The acceptance check for the
    mesh subsystem is that the uniform-key curve increases monotonically
    from one to four hubs — the reversal of E19's flat/regressing net row.
    """
    from ..mesh import MeshTopology
    from ..shard.service import ShardedService

    cells: list[dict[str, Any]] = []
    scaling: dict[str, dict[str, dict[str, float]]] = {}
    for codec in codecs:
        for skew in skews:
            for hub_count in hubs:
                reports = []
                for seed in range(1, runs + 1):
                    service = ShardedService(
                        n=n,
                        shards=shards,
                        contention=contention,
                        skew=skew,
                        seed=seed,
                        engine="net",
                        codec=codec,
                        mesh=MeshTopology(hubs=hub_count),
                    )
                    reports.append(service.run(count=count, timeout=timeout))
                divergences = sum(1 for r in reports if r.divergence)
                hub_frames: dict[str, int] = {}
                hub_bytes: dict[str, int] = {}
                hub_exits: dict[str, int] = {}
                for report in reports:
                    result = report.result
                    for hub, frames in getattr(
                        result, "hub_frame_counts", {}
                    ).items():
                        hub_frames[str(hub)] = hub_frames.get(str(hub), 0) + frames
                    for hub, nbytes in getattr(
                        result, "hub_byte_counts", {}
                    ).items():
                        hub_bytes[str(hub)] = hub_bytes.get(str(hub), 0) + nbytes
                    for hub, code in getattr(
                        result, "hub_exit_codes", {}
                    ).items():
                        hub_exits[str(hub)] = code
                aggregate = _mean_numeric([r.aggregate for r in reports])
                cells.append(
                    {
                        "codec": codec,
                        "skew": skew,
                        "hubs": hub_count,
                        "shards": shards,
                        "count": count,
                        "runs": runs,
                        "divergences": divergences,
                        "hub_frames": hub_frames,
                        "hub_bytes": hub_bytes,
                        "hub_exit_codes": hub_exits,
                        "aggregate": aggregate,
                    }
                )
                scaling.setdefault(codec, {}).setdefault(skew, {})[
                    str(hub_count)
                ] = aggregate.get("throughput_cmds", 0.0)
    return {
        "benchmark": "mesh",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "n": n,
        "t": max((n - 1) // 6, 0),
        "shards": shards,
        "contention": contention,
        "cells": cells,
        "scaling": scaling,
    }


def write_mesh_bench(
    out: pathlib.Path | str | None = None,
    n: int = 7,
    hubs: Sequence[int] = MESH_HUB_COUNTS,
    shards: int = 4,
    count: int = 96,
    runs: int = 3,
    smoke: bool = False,
) -> pathlib.Path:
    """Run the mesh ablation and persist ``BENCH_mesh.json``.

    ``smoke`` shrinks it (hubs 1–2, binary codec, uniform keys, a short
    stream) to CI scale.
    """
    if smoke:
        report = run_mesh_bench(
            n=n, shards=shards, hubs=(1, 2), count=8, runs=1,
            codecs=("binary",), skews=("uniform",),
        )
    else:
        report = run_mesh_bench(
            n=n, shards=shards, hubs=hubs, count=count, runs=runs
        )
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_mesh.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# -- recovery bench (the E20 axis) ----------------------------------------------------

#: WAL lengths (decided slots) of the replay-latency sweep.
RECOVERY_LOG_LENGTHS = (64, 256, 1024)


def run_recovery_bench(
    log_lengths: Sequence[int] = RECOVERY_LOG_LENGTHS,
    fsync_records: int = 512,
    repeats: int = 3,
    snapshot_every: int = 64,
    net_cell: bool = True,
    net_count: int = 48,
    timeout: float = 45.0,
) -> dict[str, Any]:
    """The E20 sweep: durability cost and crash-recovery latency.

    Three groups:

    * **replay** — wall-clock cost of :meth:`~repro.durable.recovery.
      NodeDurability.recover` versus WAL length, with snapshots off (full
      log replay) and on (snapshot bounds the tail) — the knob that turns
      O(history) restart into O(snapshot interval);
    * **fsync** — WAL append throughput with ``fsync`` off (flush to the
      OS) versus on (force to the platter), the classic durability tax;
    * **net** (optional) — one seeded socket-engine run where a replica is
      SIGKILLed mid-run and relaunched: end-to-end recovery latency from
      the ``node.restart`` event to its ``recovery.caught_up``, plus the
      run's divergence verdict.
    """
    import shutil
    import tempfile

    from ..durable.recovery import DurabilityConfig
    from ..durable.wal import DecideRecord, WriteAheadLog

    def one_batch(slot: int) -> tuple:
        return (("set", f"k{slot % 8}", slot),)

    replay: list[dict[str, Any]] = []
    for length in log_lengths:
        for snap in (0, snapshot_every):
            root = tempfile.mkdtemp(prefix="repro-bench-recovery-")
            try:
                config = DurabilityConfig(root, snapshot_every=snap)
                writer = config.node(0)
                slots = {0: 0}
                applied: dict[int, list[tuple]] = {0: []}
                kv: dict[int, dict[str, int]] = {0: {}}
                for slot in range(length):
                    batch = one_batch(slot)
                    writer.commit(0, slot, batch, "one-step")
                    applied[0].append(batch)
                    kv[0][batch[0][1]] = batch[0][2]
                    slots[0] = slot + 1
                    writer.maybe_snapshot(slots, applied, kv)
                writer.close()

                def recover_once() -> None:
                    reader = config.node(0)
                    state = reader.recover(1)
                    reader.close()
                    assert state is not None and state.slots[0] == length

                seconds = _best_of(repeats, recover_once)
                probe = config.node(0)
                state = probe.recover(1)
                probe.close()
                replay.append(
                    {
                        "log_length": length,
                        "snapshot_every": snap,
                        "recover_seconds": round(seconds, 6),
                        "replayed_records": state.replayed_records,
                        "from_snapshot": state.from_snapshot,
                    }
                )
            finally:
                shutil.rmtree(root, ignore_errors=True)

    fsync_rows: list[dict[str, Any]] = []
    for fsync in (False, True):
        root = tempfile.mkdtemp(prefix="repro-bench-wal-")
        try:
            def append_all() -> None:
                wal = WriteAheadLog(
                    pathlib.Path(root) / f"wal-{fsync}.log", fsync=fsync
                )
                for slot in range(fsync_records):
                    wal.append(DecideRecord(0, slot, "one-step"))
                wal.reset()
                wal.close()

            seconds = _best_of(repeats, append_all)
            fsync_rows.append(
                {
                    "fsync": fsync,
                    "records": fsync_records,
                    "seconds": round(seconds, 6),
                    "records_per_second": round(fsync_records / seconds, 1)
                    if seconds
                    else None,
                }
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    net: dict[str, Any] | None = None
    if net_cell:
        from ..durable.recovery import DurabilityConfig as _Config
        from ..engine.events import EventLog, RestartEvent
        from ..engine.faults import CrashRecover
        from ..shard.service import ShardedService

        root = tempfile.mkdtemp(prefix="repro-bench-recovery-net-")
        try:
            log = EventLog()
            service = ShardedService(
                n=7,
                shards=4,
                seed=3,
                rate=8,
                engine="net",
                faults={2: CrashRecover(at=0.05, restart_after=0.3)},
                durability=_Config(root, snapshot_every=4),
                event_sink=log,
            )
            started = time.perf_counter()
            report = service.run(count=net_count, timeout=timeout)
            wall = time.perf_counter() - started
            restarted_at = caught_up_at = None
            for event in log.events:
                if isinstance(event, RestartEvent) and event.pid == 2:
                    restarted_at = event.time
                elif (
                    getattr(event, "event", None) == "recovery.caught_up"
                    and event.pid == 2
                ):
                    caught_up_at = event.time
            net = {
                "count": net_count,
                "divergence": report.divergence,
                "commands": report.commands,
                "wall_seconds": round(wall, 4),
                "restarted_at": restarted_at,
                "caught_up_at": caught_up_at,
                "recovery_seconds": (
                    round(caught_up_at - restarted_at, 4)
                    if restarted_at is not None and caught_up_at is not None
                    else None
                ),
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": "recovery",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "replay": replay,
        "fsync": fsync_rows,
        "net": net,
    }


def write_recovery_bench(
    out: pathlib.Path | str | None = None,
    log_lengths: Sequence[int] = RECOVERY_LOG_LENGTHS,
    repeats: int = 3,
    smoke: bool = False,
) -> pathlib.Path:
    """Run the recovery bench and persist ``BENCH_recovery.json``.

    ``smoke`` shrinks it (one short log, one repeat, smaller net stream)
    to CI scale.
    """
    if smoke:
        report = run_recovery_bench(
            log_lengths=(32,), fsync_records=64, repeats=1, net_count=24
        )
    else:
        report = run_recovery_bench(log_lengths=log_lengths, repeats=repeats)
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_recovery.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# -- frontend bench (the E22 axis) ----------------------------------------------------

#: Offered-load sweep, as fractions of service capacity (shards × max_batch
#: commands per tick): below, at, and past the knee.
FRONTEND_LOAD_FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)


def run_frontend_bench(
    n: int = 7,
    shards: int = 2,
    max_batch: int = 4,
    ticks: int = 40,
    queue_bound: int = 32,
    policy: str = "shed",
    fractions: Sequence[float] = FRONTEND_LOAD_FRACTIONS,
    seed: int = 11,
    socket_cell: bool = True,
    socket_submits: int = 24,
    timeout: float = 30.0,
) -> dict[str, Any]:
    """The E22 sweep: the client-observed saturation curve.

    One open-loop cell per offered load (Poisson arrivals through the
    admission-controlled frontend, sim engine), each over a fresh
    service: client p50/p99 latency in slot ticks, shed rate, throughput
    against the capacity plateau, and queue high-water.  The ``knee`` is
    the largest offered load whose cell shed nothing — below it latency
    is flat and shedding zero; past it p99 goes super-linear, the shed
    rate turns positive, and throughput plateaus at capacity instead of
    collapsing (the queues bound the damage: that is what admission
    control is *for*).  A closed-loop cell at a window of one capacity's
    worth of clients shows the self-pacing comparison, and an optional
    socket cell round-trips a small session over UDS in both codecs.
    """
    from ..frontend.api import Frontend
    from ..frontend.loadgen import LoadGenerator, saturation_sweep
    from ..shard.service import ShardedService

    def make_service() -> ShardedService:
        return ShardedService(n=n, shards=shards, max_batch=max_batch, seed=3)

    capacity = shards * max_batch
    offered = [capacity * fraction for fraction in fractions]
    open_rows = saturation_sweep(
        make_service,
        offered,
        ticks=ticks,
        queue_bound=queue_bound,
        policy=policy,
        seed=seed,
        timeout=timeout,
    )
    knee = None
    for row in open_rows:
        if row["shed_rate"] == 0.0:
            knee = row["offered_per_tick"]

    closed = Frontend(make_service(), queue_bound=max(queue_bound, capacity))
    closed_report = LoadGenerator(seed=seed).closed_loop(
        closed, clients=capacity, total=ticks * capacity // 2, timeout=timeout
    )

    socket_cells: dict[str, Any] | None = None
    if socket_cell:
        import shutil
        import tempfile

        from ..codec import CODEC_BINARY, CODEC_PICKLE
        from ..frontend.socket import ClientReply, FrontendServer, SocketClient

        socket_cells = {}
        for codec_name, codec in (("binary", CODEC_BINARY), ("pickle", CODEC_PICKLE)):
            root = tempfile.mkdtemp(prefix="repro-bench-frontend-")
            try:
                path = pathlib.Path(root) / "frontend.sock"
                server = FrontendServer(
                    lambda: Frontend(make_service(), queue_bound=queue_bound),
                    path=str(path),
                    codec=codec,
                )
                thread = server.serve_once_in_thread(timeout=timeout)
                started = time.perf_counter()
                outcomes = SocketClient(
                    path=str(path), codec=codec, timeout=timeout
                ).submit_all(
                    (f"k{i % 8}", i) for i in range(socket_submits)
                )
                thread.join(timeout)
                wall = time.perf_counter() - started
                socket_cells[codec_name] = {
                    "submits": socket_submits,
                    "replies": sum(
                        1 for o in outcomes.values() if isinstance(o, ClientReply)
                    ),
                    "rejects": sum(
                        1 for o in outcomes.values() if not isinstance(o, ClientReply)
                    ),
                    "wall_seconds": round(wall, 4),
                }
            finally:
                shutil.rmtree(root, ignore_errors=True)

    return {
        "benchmark": "frontend",
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "n": n,
        "t": max((n - 1) // 6, 0),
        "shards": shards,
        "max_batch": max_batch,
        "capacity_per_tick": capacity,
        "ticks": ticks,
        "queue_bound": queue_bound,
        "policy": policy,
        "seed": seed,
        "knee_offered_per_tick": knee,
        "open_loop": open_rows,
        "closed_loop": closed_report.summary(),
        "socket": socket_cells,
    }


def write_frontend_bench(
    out: pathlib.Path | str | None = None,
    shards: int = 2,
    ticks: int = 40,
    smoke: bool = False,
) -> pathlib.Path:
    """Run the frontend bench and persist ``BENCH_frontend.json``.

    ``smoke`` shrinks the sweep (three loads, short run, small socket
    session) to CI scale.
    """
    if smoke:
        report = run_frontend_bench(
            shards=shards,
            ticks=12,
            fractions=(0.5, 1.5, 3.0),
            socket_submits=12,
        )
    else:
        report = run_frontend_bench(shards=shards, ticks=ticks)
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_frontend.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def write_hotpath_bench(
    out: pathlib.Path | str | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 3,
) -> pathlib.Path:
    """Run the suite and persist ``BENCH_hotpath.json``.

    Args:
        out: output path; defaults to ``benchmarks/results/BENCH_hotpath.json``
            under the current directory (created if missing).
    """
    report = run_hotpath_bench(sizes=sizes, repeats=repeats)
    if out is None:
        out = pathlib.Path("benchmarks") / "results" / "BENCH_hotpath.json"
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
