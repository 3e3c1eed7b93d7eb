"""Per-layer metrics, measured from outside the layers.

Sources: the run result, the lean sink, ``getrusage``, the WAL directory,
and isolated timed calls into a layer's public functions on data captured
from the workload.  A metric that does not apply to a workload
(``durable.*`` without a WAL, ``net.*`` on the simulator, ``mesh.*`` on one
hub) reads 0.
README.md has the table of which end-to-end metric each one should move.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any

from sink import PayloadSampler
from workloads import MAX_BATCH, N, QUEUE_BOUND, SHARDS, SNAPSHOT_EVERY, Trial, Workload

from repro.codec import CODEC_BINARY
from repro.durable.recovery import DurabilityConfig
from repro.durable.wal import (
    ApplyRecord,
    DecideRecord,
    ProposeRecord,
    WriteAheadLog,
    scan_records,
)
from repro.frontend.api import Frontend
from repro.net.wire import FrameDecoder, batch_frames, encode_frame_into
from repro.shard.metrics import step_of_kind
from repro.shard.service import ShardedService
from repro.types import DecisionKind

#: name -> unit, in print order; BENCHMARK.json lists the same names.
UNITS: dict[str, str] = {
    "frontend.session_overhead_s": "s",
    "frontend.submit_us": "us",
    "frontend.shed_share": "share",
    "shard.cmds_per_slot": "count",
    "shard.slots_per_s": "1/s",
    "shard.one_step_share": "share",
    "shard.two_step_share": "share",
    "shard.uc_share": "share",
    "shard.mean_steps_per_slot": "count",
    "core.msgs_per_slot": "count",
    "core.handler_us_per_msg": "us",
    "net.hub0_cpu_ms_per_cmd": "ms",
    "net.children_cpu_ms_per_cmd": "ms",
    "net.frames_per_cmd": "count",
    "net.bytes_per_cmd": "B",
    "net.msgs_per_frame": "count",
    "net.spawn_s": "s",
    "mesh.hub_frame_share.0": "share",
    "mesh.hub_frame_share.1": "share",
    "mesh.relayed_share": "share",
    "mesh.saturated_events": "count",
    "codec.encode_us_per_frame": "us",
    "codec.decode_us_per_frame": "us",
    "codec.bytes_per_frame": "B",
    "durable.wal_records_per_cmd": "count",
    "durable.wal_bytes_per_cmd": "B",
    "durable.wal_append_us": "us",
    "durable.replay_ms": "ms",
    "durable.recover_s_median": "s",
    "durable.recover_s_max": "s",
    "durable.replayed_slots": "count",
    "durable.catchup_slots": "count",
    "sim.events_per_s": "1/s",
    "sim.msgs_per_cmd": "count",
    "trace.overhead_share": "share",
}


#: calls of each isolated probe; the median is reported.
PROBE_REPEATS = 5


def _timed(fn) -> float:
    """Median wall seconds of ``fn()`` over :data:`PROBE_REPEATS` calls."""
    samples = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- isolated probes ------------------------------------------------------------------


def probe_frontend_submit(w: Workload, commands: list[tuple[str, int]]) -> float:
    """Microseconds per command of ``Frontend.submit`` + ``tick`` + the
    final drain, on the trial's own commands (the service never runs)."""

    def admit() -> None:
        frontend = Frontend(
            ShardedService(n=N, shards=SHARDS, max_batch=MAX_BATCH),
            queue_bound=QUEUE_BOUND,
            policy="block",
        )
        for index, (key, op) in enumerate(commands, 1):
            frontend.submit(key, op)
            if index % w.tick_every == 0:
                frontend.tick()
        frontend.drain()

    return _timed(admit) / len(commands) * 1e6


def probe_codec(
    entries: list[tuple[int, Any, int]], msgs_per_frame: float
) -> tuple[float, float]:
    """``(encode us, decode us)`` per frame over delivery frames built from
    payloads sampled off the workload, coalesced as the hub did."""
    chunk = max(1, round(msgs_per_frame))
    frames = []
    for at in range(0, len(entries), chunk):
        frames.extend(batch_frames(entries[at : at + chunk])[0])
    buf = bytearray()

    def encode() -> None:
        buf.clear()
        for frame in frames:
            encode_frame_into(frame, buf, CODEC_BINARY)

    encode_s = _timed(encode)
    data = bytes(buf)
    decode_s = _timed(lambda: list(FrameDecoder().feed(data)))
    return encode_s / len(frames) * 1e6, decode_s / len(frames) * 1e6


def _slot_records(digest: tuple):
    for shard, batches in digest:
        for slot, batch in enumerate(batches):
            yield ProposeRecord(shard, slot, batch)
            yield DecideRecord(shard, slot, "one-step")
            yield ApplyRecord(shard, slot, batch)


def probe_wal_append(digest: tuple, root: str) -> float:
    """Microseconds per ``WriteAheadLog.append`` (flush, no fsync) of the
    records one replica writes for the run's own batches."""
    records = list(_slot_records(digest))
    path = os.path.join(root, "probe-wal.log")

    def append() -> None:
        wal = WriteAheadLog(path)
        wal.reset()
        for record in records:
            wal.append(record)
        wal.close()

    return _timed(append) / len(records) * 1e6


def probe_replay(wal_root: str) -> float:
    """Milliseconds for one replica to open its directory (WAL scan,
    snapshot load) and fold it back, over a finished run's files."""
    config = DurabilityConfig(wal_root, fsync=False, snapshot_every=SNAPSHOT_EVERY)

    def recover() -> None:
        node = config.node(0)
        node.recover(SHARDS)
        node.close()

    return _timed(recover) * 1e3


def wal_on_disk(wal_root: str) -> tuple[int, int]:
    """``(records, bytes)`` in every replica's log under ``wal_root``, read
    with the WAL's own scanner.  The run must not have snapshotted: a
    snapshot resets the log."""
    records = size = 0
    for node in os.listdir(wal_root):
        scan = scan_records(os.path.join(wal_root, node, "wal.log"))
        records += len(scan.records)
        size += scan.good_bytes
    return records, size


def run_probes(
    w: Workload, warm: Trial, trial: Trial, sampler: PayloadSampler | None
) -> dict[str, float]:
    """Every probe that applies to ``w``: on ``trial``'s own data
    (``trial.wal_root`` must still be on disk), and on what the warm-up
    ``warm`` left behind — the sampler's payloads and relay count, and its
    WAL files (the warm-up never snapshots, so its whole log is there)."""
    probes: dict[str, float] = {}
    if w.kind == "pipeline":
        probes["frontend.submit_us"] = probe_frontend_submit(w, trial.commands)
        probes["durable.wal_append_us"] = probe_wal_append(
            trial.digest, os.path.dirname(trial.wal_root)
        )
        probes["durable.replay_ms"] = probe_replay(trial.wal_root)
        if not warm.failed:
            records, size = wal_on_disk(warm.wal_root)
            probes["durable.wal_records_per_cmd"] = records / len(warm.commands)
            probes["durable.wal_bytes_per_cmd"] = size / len(warm.commands)
    if sampler is not None and sampler.entries:
        result = trial.result
        (
            probes["codec.encode_us_per_frame"],
            probes["codec.decode_us_per_frame"],
        ) = probe_codec(
            sampler.entries, result.stats.messages_delivered / result.hub_frames
        )
        if warm.result is not None and warm.result.stats.messages_sent:
            probes["mesh.relayed_share"] = (
                sampler.relayed / warm.result.stats.messages_sent
            )
    return probes


# -- the metric table -----------------------------------------------------------------


def layer_metrics(
    w: Workload, trial: Trial, probes: dict[str, float]
) -> dict[str, float]:
    """Every name in :data:`UNITS` for one untraced trial plus the probe and
    trace numbers in ``probes`` (missing ones read 0)."""
    out = dict.fromkeys(UNITS, 0.0)
    out.update(probes)
    cmds = len(trial.commands) - trial.failed
    slots, sink, result = trial.slots, trial.sink, trial.result
    if not cmds or not slots or result is None:
        return out
    out["shard.cmds_per_slot"] = cmds / slots
    out["shard.slots_per_s"] = slots / trial.wall_s
    decided = sum(sink.kinds.values())
    if decided:
        out["shard.one_step_share"] = sink.kinds["one-step"] / decided
        out["shard.two_step_share"] = sink.kinds["two-step"] / decided
        out["shard.uc_share"] = sink.kinds["underlying"] / decided
        out["shard.mean_steps_per_slot"] = (
            sum(step_of_kind(DecisionKind(kind)) * n for kind, n in sink.kinds.items())
            / decided
        )
    out["core.msgs_per_slot"] = result.stats.messages_sent / slots
    if w.kind == "sim":
        out["sim.events_per_s"] = result.stats.messages_delivered / trial.wall_s
        out["sim.msgs_per_cmd"] = result.stats.messages_sent / cmds
        return out
    out["net.hub0_cpu_ms_per_cmd"] = trial.cpu_self_s * 1e3 / cmds
    out["net.children_cpu_ms_per_cmd"] = trial.cpu_children_s * 1e3 / cmds
    out["net.frames_per_cmd"] = result.hub_frames / cmds
    out["net.bytes_per_cmd"] = result.hub_bytes / cmds
    out["net.msgs_per_frame"] = result.stats.messages_delivered / result.hub_frames
    out["net.spawn_s"] = trial.spawn_s
    out["codec.bytes_per_frame"] = result.hub_bytes / result.hub_frames
    if w.hubs > 1:
        for hub in range(w.hubs):
            out[f"mesh.hub_frame_share.{hub}"] = (
                result.hub_frame_counts.get(hub, 0) / result.hub_frames
            )
        out["mesh.saturated_events"] = float(sink.saturated_events)
    if w.kind == "pipeline":
        out["frontend.session_overhead_s"] = trial.wall_s - trial.run_wall_s
        out["frontend.shed_share"] = trial.shed_share
        if sink.recover_seconds:
            out["durable.recover_s_median"] = statistics.median(sink.recover_seconds)
            out["durable.recover_s_max"] = max(sink.recover_seconds)
        out["durable.replayed_slots"] = float(sink.replayed_slots)
        out["durable.catchup_slots"] = float(sink.catchup_slots)
    return out
