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


def _run(root=None, **kwargs):
    rng = random.Random(SEED)
    arrivals = [(0, ("set", f"k{rng.randrange(32)}", op)) for op in range(COMMANDS)]
    service = ShardedService(
        n=N,
        shards=4,
        max_batch=4,
        contention=0.3,
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
