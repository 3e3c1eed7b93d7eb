"""E21 — what the binary codec saves per delivered message: a seeded cell.

The same seeded contended ``n = 7`` runs as ever (4 x 1 vs 3 x 2: the
workload that exercises every message kind — proposals, IDB init/echo, the
underlying consensus), on the simulator with an ``EventLog``.  For every
delivered message the cell sizes the frame the socket engine's hub writes
for it, ``encode_frame(MsgDeliver(sender, payload, depth))``, next to a
pickle of the same record plus the 6-byte frame header (length, version,
codec id) — what a pickle codec would put on the wire.  The pickle side
lives here only: the library has one codec.

Every size is a function of the seed, so the table regenerates byte for
byte and CI diffs it.  The pickle column is CPython's protocol-5 length,
the same on 3.11 and 3.12 for every record here (CI runs this file on
3.12).

Expected shape: 4 x 1 vs 3 x 2 admits neither expedited path, so every
seed decides ``underlying``; binary frames are several times smaller than
pickled ones for every kind of payload.
"""

import pickle
from collections import defaultdict

from _util import write_report

from repro.engine.events import DeliverEvent, EventLog
from repro.harness import Scenario, dex_freq
from repro.metrics.report import format_table
from repro.net.wire import MsgDeliver, encode_frame
from repro.runtime.effects import Envelope
from repro.types import DecisionKind
from repro.workloads.inputs import split

N = 7
RUNS = 5
INPUTS = split(1, 2, N, N // 2)
#: length prefix + version byte + codec byte
HEADER = 6


def _kind(payload) -> str:
    while type(payload) is Envelope:
        payload = payload.payload
    return type(payload).__name__


def sizes(seed: int):
    """``(kind, binary frame bytes, pickled frame bytes)`` per delivery of
    one seeded run."""
    log = EventLog()
    result = Scenario(dex_freq(), INPUTS, seed=seed, event_sink=log).run()
    assert result.all_correct_decided() and result.agreement_holds()
    assert {d.kind for d in result.correct_decisions.values()} == {
        DecisionKind.UNDERLYING
    }
    out = []
    for event in log.of_type(DeliverEvent):
        record = MsgDeliver(event.sender, event.payload, event.depth)
        out.append(
            (
                _kind(event.payload),
                len(encode_frame(record)),
                HEADER + len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)),
            )
        )
    return out


def _row(label: str, cells) -> dict:
    binary = sum(b for _, b, _ in cells)
    pickled = sum(p for _, _, p in cells)
    return {
        "cell": label,
        "delivered": len(cells),
        "binary B/frame": round(binary / len(cells), 1),
        "pickle B/frame": round(pickled / len(cells), 1),
        "pickle/binary": round(pickled / binary, 2),
    }


def sweep():
    by_seed = {seed: sizes(seed) for seed in range(1, RUNS + 1)}
    by_kind = defaultdict(list)
    for cells in by_seed.values():
        for cell in cells:
            by_kind[cell[0]].append(cell)
    every = [cell for cells in by_seed.values() for cell in cells]
    return (
        [_row(f"seed {seed}", cells) for seed, cells in by_seed.items()]
        + [_row(f"kind {kind}", cells) for kind, cells in sorted(by_kind.items())]
        + [_row("all", every)]
    )


def test_e21_codec_ablation(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e21_codec",
        format_table(
            rows,
            title=f"E21: frame bytes per delivered message, binary vs pickle "
            f"(n={N}, contended, seeds 1-{RUNS}, sim)",
        ),
    )
    assert all(row["binary B/frame"] < row["pickle B/frame"] for row in rows)
    assert rows[-1]["pickle/binary"] > 3
