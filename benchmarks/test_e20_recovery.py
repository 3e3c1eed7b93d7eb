"""E20 — durability cost: replay length vs snapshots, and the fsync tax.

Two measurements of :mod:`repro.durable` on local disk:

* **replay** — :meth:`~repro.durable.recovery.NodeDurability.recover` over
  a WAL of ``length`` decided slots, with snapshots off (a linear walk of
  the whole log) and on (the snapshot seeds the frontier and only the tail
  since the last one replays): O(history) restart becomes O(interval);
* **fsync** — WAL appends with ``fsync`` off (flush to the page cache, which
  survives the process — the net engine's crash model) versus on (survives
  the machine).

The replayed-record counts are exact and asserted; seconds are best-of-3
and reported only (on tmpfs the fsync ratio is ~1).  The kill → restart →
rejoin path over sockets is ``tests/test_durable.py`` (``TestNetRecovery``)
and the ``sparse_recover`` workload of ``benchmarks/e2e``.
"""

from _util import best_of, write_report

from repro.durable import DecideRecord, DurabilityConfig, WriteAheadLog
from repro.metrics.report import format_table

LOG_LENGTHS = (64, 256, 1000)
SNAPSHOT_EVERY = 64
FSYNC_RECORDS = 512


def replay_row(root, length, snapshot_every):
    config = DurabilityConfig(str(root), snapshot_every=snapshot_every)
    writer = config.node(0)
    slots, applied, kv = {0: 0}, {0: []}, {0: {}}
    for slot in range(length):
        batch = (("set", f"k{slot % 8}", slot),)
        writer.commit(0, slot, batch)
        applied[0].append(batch)
        kv[0][batch[0][1]] = slot
        slots[0] = slot + 1
        writer.maybe_snapshot(slots, applied, kv)
    writer.close()

    def recover():
        reader = config.node(0)
        state = reader.recover(1)
        reader.close()
        return state

    seconds = best_of(3, recover)
    state = recover()
    assert state.slots[0] == length
    return {
        "decided slots": length,
        "snapshots": f"every {snapshot_every}" if snapshot_every else "off",
        "recover ms": round(seconds * 1e3, 3),
        "records replayed": state.replayed_records,
        "from snapshot": state.from_snapshot,
    }


def fsync_row(root, fsync):
    def append_all():
        wal = WriteAheadLog(str(root / f"wal-{fsync}.log"), fsync=fsync)
        for slot in range(FSYNC_RECORDS):
            wal.append(DecideRecord(0, slot, "one-step"))
        wal.reset()
        wal.close()

    seconds = best_of(3, append_all)
    return {"fsync": fsync, "records": FSYNC_RECORDS,
            "records/s": round(FSYNC_RECORDS / seconds)}


def test_e20_replay_and_fsync(benchmark, tmp_path):
    def sweep():
        rows = []
        for snapshot_every in (0, SNAPSHOT_EVERY):
            for length in LOG_LENGTHS:
                root = tmp_path / f"replay-{length}-{snapshot_every}"
                root.mkdir()
                rows.append(replay_row(root, length, snapshot_every))
        return rows, [fsync_row(tmp_path, fsync) for fsync in (False, True)]

    replay, fsync = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e20_recovery",
        format_table(replay, title="E20: recovery replay vs WAL length")
        + "\n\n"
        + format_table(fsync, title="E20: WAL append rate, flush-only vs fsync"),
    )
    for row in replay:
        if row["snapshots"] == "off":
            assert row["records replayed"] == row["decided slots"]
            assert not row["from snapshot"]
        else:
            assert row["records replayed"] == row["decided slots"] % SNAPSHOT_EVERY
            assert row["from snapshot"]
