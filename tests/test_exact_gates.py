"""Exact gates: what a seeded simulator run of the sharded service counts.

The benchmark's ``sim_core`` workload runs this shape — ``n=7, t=1``, 4
shards, ``max_batch=4``, contention 0.3 over 32 keys, every command
arriving at once — on the virtual clock, where every count repeats to the
unit for a seed.  A change that moves one of these numbers changed the
protocol's message economy, the batching or the durable log, and has to say
so: these are pinned at the values the code produced before the change that
added them, not derived.  The model checker's DEX smoke row is pinned the
same way: the number of states it explores moves with the protocol's state
space and nothing else.

The same shape on ``net`` pins what hub 0 reads off the node links in a
healthy run — the frame census of ``benchmarks/profile_net.py --census`` —
in terms of the run's own slot count and settle paths, so no race moves
it: the number of slots, which rival wins a contended one and whether a
replica settles a slot itself or catches it up are the schedule's, what
each costs is the protocol's.
"""

import collections
import os
import random
import zlib

import pytest

from repro.durable.recovery import DurabilityConfig
from repro.durable.wal import ApplyRecord, scan_records
from repro.engine.events import DecideEvent, LogEvent, OutputEvent, SendEvent, ServiceEvent
from repro.mc.suite import run_check, suite_checks
from repro.runtime.composite import Envelope
from repro.shard.service import ShardedService

SEED, COMMANDS, N = 1, 64, 7


def _run(root=None, contention=0.3, **kwargs):
    rng = random.Random(SEED)
    arrivals = [(0, ("set", f"k{rng.randrange(32)}", op)) for op in range(COMMANDS)]
    service = ShardedService(
        n=N,
        shards=4,
        max_batch=4,
        contention=contention,
        keyspace=32,
        seed=SEED,
        durability=root and DurabilityConfig(root, snapshot_every=0),
        **kwargs,
    )
    return service.run_stream(arrivals)


def test_sim_core_shape_counts_are_exact(tmp_path):
    report = _run(str(tmp_path))
    stats = report.result.stats
    assert not report.divergence and report.commands == COMMANDS
    assert (stats.messages_sent, stats.messages_delivered, report.slots) == (8330, 8215, 19)
    # One ApplyRecord per settled slot per replica, and nothing else.
    logs = [scan_records(str(tmp_path / node / "wal.log")).records for node in os.listdir(tmp_path)]
    assert len(logs) == N
    assert [len(records) for records in logs] == [report.slots] * N
    assert {type(record) for records in logs for record in records} == {ApplyRecord}


def test_sim_core_shape_applied_log_is_exact(tmp_path):
    """The applied log itself, on a run where every decision path is taken:
    a quarter of the slot decisions come from the underlying consensus."""
    report = _run(str(tmp_path))
    aggregate = report.aggregate
    assert (
        aggregate["one_step_frac"],
        aggregate["two_step_frac"],
        aggregate["underlying_frac"],
    ) == (0.684, 0.053, 0.263)
    assert zlib.crc32(repr(report.digest).encode()) == 2248730725


def _shard_row(shard, commands, throughput, slots, calls, mean, fracs, p50, p99):
    one, two, uc = fracs
    return {
        "shard": shard, "hub": 0, "slots": slots, "commands": commands,
        "throughput_cmds": throughput, "runs": slots, "service_calls": calls,
        "mean_step": mean, "mean_max_step": mean, "one_step_frac": one,
        "two_step_frac": two, "underlying_frac": uc, "mean_wall_seconds": 0.0,
        "p50_decision_latency_s": p50, "p99_decision_latency_s": p99, "timeouts": 0,
    }


#: contention -> (per-shard rows, aggregate) of the 64-command run, every key.
SHARD_REPORTS = {
    0.3: (
        [
            _shard_row(0, 17, 1.627, 5, 35, 1.6, (0.8, 0.0, 0.2), 1.335181, 3.348609),
            _shard_row(1, 20, 1.914, 5, 35, 1.6, (0.8, 0.0, 0.2), 1.245018, 3.836069),
            _shard_row(2, 10, 0.957, 4, 28, 2.0, (0.5, 0.25, 0.25), 2.157993, 3.773654),
            _shard_row(3, 17, 1.627, 5, 28, 2.2, (0.6, 0.0, 0.4), 1.36742, 3.757717),
        ],
        {
            "shards": 4, "hubs": 1, "slots": 19, "commands": 64, "throughput_cmds": 6.125,
            "duration": 10.449698,
            "per_hub": {"0": {"shards": 4, "commands": 64, "slots": 19}},
            "runs": 19, "sends": 8330, "delivers": 8215, "service_calls": 126,
            "mean_step": 1.842, "mean_max_step": 1.842, "one_step_frac": 0.684,
            "two_step_frac": 0.053, "underlying_frac": 0.263, "mean_wall_seconds": 0.0,
            "throughput_msgs_per_s": 786.1, "p50_decision_latency_s": 1.36742,
            "p99_decision_latency_s": 3.773654, "timeouts": 0,
        },
    ),
    0.5: (
        [
            _shard_row(0, 17, 1.189, 5, 35, 2.2, (0.6, 0.0, 0.4), 1.41806, 3.480602),
            _shard_row(1, 20, 1.399, 5, 35, 3.0, (0.2, 0.2, 0.6), 3.311234, 3.657261),
            _shard_row(2, 10, 0.7, 4, 28, 2.0, (0.5, 0.25, 0.25), 2.157993, 3.711642),
            _shard_row(3, 17, 1.189, 5, 35, 2.4, (0.4, 0.2, 0.4), 2.525667, 3.660454),
        ],
        {
            "shards": 4, "hubs": 1, "slots": 19, "commands": 64, "throughput_cmds": 4.478,
            "duration": 14.293504,
            "per_hub": {"0": {"shards": 4, "commands": 64, "slots": 19}},
            "runs": 19, "sends": 8379, "delivers": 8512, "service_calls": 133,
            "mean_step": 2.421, "mean_max_step": 2.421, "one_step_frac": 0.421,
            "two_step_frac": 0.158, "underlying_frac": 0.421, "mean_wall_seconds": 0.0,
            "throughput_msgs_per_s": 595.5, "p50_decision_latency_s": 2.513865,
            "p99_decision_latency_s": 3.660454, "timeouts": 0,
        },
    ),
}


@pytest.mark.parametrize("contention", sorted(SHARD_REPORTS))
def test_sim_core_shape_shard_report_is_exact(contention):
    """Every key and value of the service's report: per shard, the slots
    folded by decision path and latency; in the aggregate, the same fold
    over all shards next to the run's own message counters.  At contention
    0.5 every shard but one takes the two-step path somewhere."""
    report = _run(contention=contention)
    assert (report.per_shard, report.aggregate) == SHARD_REPORTS[contention]


def test_dex_freq_n7_smoke_check_is_exact():
    """``repro check --smoke``'s DEX row: the states the model checker
    explores per Byzantine variant (the last one capped), independent of
    ``PYTHONHASHSEED``."""
    (spec,) = [check for check in suite_checks(smoke=True) if check.name == "dex-freq-n7"]
    report = run_check(spec)
    assert report.ok
    assert [(v["states"], v["complete"]) for v in report.variants] == [
        (858, True),
        (981, True),
        (1381, True),
        (3001, False),
    ]
    assert report.states == 6221



class _Census:
    """Hub 0's inbound frames by record kind, off the run's event stream:
    one event per control frame, and one ``SendEvent`` per copy of a data
    frame — consecutive, all over the frame's one payload span.  A
    broadcast is booked under the record its instance envelope carries."""

    CONTROL = {DecideEvent: "MsgDecide", OutputEvent: "MsgOutput", ServiceEvent: "MsgService"}

    def __init__(self):
        self.frames = collections.Counter()
        self.logs = collections.Counter()
        self._span, self._copies = None, 0

    def emit(self, event):
        kind = type(event)
        if kind is SendEvent:
            if event.raw is not self._span:
                self.close()
                self._span = event.raw
                self._record = event.payload
                while isinstance(self._record, Envelope):
                    self._record = self._record.payload
            self._copies += 1
        elif kind is LogEvent:
            if event.pid >= 0:  # else the service's own record: no frame carried it
                self.frames["MsgLog"] += 1
                self.logs[event.event] += 1
        elif kind in self.CONTROL:
            self.frames[self.CONTROL[kind]] += 1

    def close(self):
        if self._copies > 1:
            self.frames[f"MsgBroadcast({type(self._record).__name__})"] += 1
        elif self._copies:
            self.frames["MsgSend"] += 1
        self._span, self._copies = None, 0


@pytest.mark.net
def test_healthy_slot_frame_census_is_exact():
    """What hub 0 reads off the node links when nobody crashes, per slot.

    Each replica settles each slot once: it opens the slot (``shard.open``,
    its proposal and IDB init broadcasts, later ``shard.decide``), or, when
    jitter let a passive instance decide the slot before its predecessor,
    it buffers that decision (``shard.future-decision``) and settles it
    when the frontier gets there (``recovery.slot``).  A replica writes
    all of that up its link before its one top-level decision, and the run
    ends on the last of those, so those counts are exact.  Capped: the IDB
    echoes (one per replica per origin, so at most 63 broadcasts a slot)
    and the underlying-consensus proposals (one per replica), which a
    replica may still be sending for its last slots when the run ends.
    Nothing else crosses a link: no ``MsgSend``, ``MsgOutput`` or other
    record, ``recovery.re_served`` included."""
    census = _Census()
    report = _run(engine="net", event_sink=census)
    census.close()
    assert not report.divergence and report.commands == COMMANDS
    slots, frames, logs = report.slots, census.frames, census.logs
    assert sum(frames.values()) == report.result.hub_frames_in
    opened = logs["shard.open"]
    caught_up = N * slots - opened  # zero unless jitter reordered two slots
    expected = {"shard.open": opened, "shard.decide": opened}
    if caught_up:
        expected.update({"shard.future-decision": caught_up, "recovery.slot": caught_up})
    assert logs == expected
    echoes, service = frames.pop("MsgBroadcast(IdbEcho)"), frames.pop("MsgService")
    assert frames == {
        "MsgBroadcast(DexProposal)": opened,
        "MsgBroadcast(IdbInit)": opened,
        "MsgLog": sum(logs.values()),
        "MsgDecide": N,
    }
    assert echoes <= 49 * slots
    assert service <= N * slots
