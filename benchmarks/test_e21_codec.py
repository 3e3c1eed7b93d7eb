"""E21 — payload-codec economy over real sockets: binary vs pickle.

The same seeded contended ``n = 7`` runs (the workload that exercises every
message kind: proposals, IDB init/echo, the underlying consensus) under
each codec; the only knob is ``Scenario(codec=)``.  Binary struct-packs the
control plane and keeps consensus payloads opaque through the hub, so the
cell reports both axes: size (hub bytes per frame) and rate (delivered
messages per wall second).

Expected shape: both codecs run every seed to a decision on the same path
(4 x 1 vs 3 x 2 admits neither expedited path, so all decisions are
``underlying``; *which* proposed value wins is a race and may differ), and
binary frames are several times smaller.  The rate column is wall-clock and
reported only — ``benchmarks/e2e`` is where a rate may be claimed.
"""

from _util import write_report

from repro.harness import Scenario, dex_freq
from repro.metrics.report import format_table
from repro.types import DecisionKind
from repro.workloads.inputs import split

N = 7
RUNS = 5
INPUTS = split(1, 2, N, N // 2)


def sweep():
    rows = []
    for codec in ("pickle", "binary"):
        frames = nbytes = delivered = 0
        wall = 0.0
        for seed in range(1, RUNS + 1):
            result = Scenario(dex_freq(), INPUTS, seed=seed, codec=codec, engine="net").run(
                timeout=20.0
            )
            assert not result.timed_out
            assert set(result.exit_codes.values()) == {0}
            assert result.all_correct_decided() and result.agreement_holds()
            assert result.decided_value in INPUTS
            assert {d.kind for d in result.correct_decisions.values()} == {
                DecisionKind.UNDERLYING
            }
            frames += result.hub_frames
            nbytes += result.hub_bytes
            delivered += result.stats.messages_delivered
            wall += result.end_time
        rows.append(
            {
                "codec": codec,
                "runs": RUNS,
                "hub frames": frames,
                "bytes/frame": round(nbytes / frames, 1),
                "hub msgs/s": round(delivered / wall),
            }
        )
    return rows


def test_e21_codec_ablation(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    pickle_row, binary_row = rows
    ratio = round(pickle_row["bytes/frame"] / binary_row["bytes/frame"], 2)
    write_report(
        "e21_codec",
        format_table(
            rows, title=f"E21: codec ablation over real sockets (n={N}, contended)"
        )
        + f"\nbinary frames are {ratio}x smaller",
    )
    assert binary_row["bytes/frame"] < pickle_row["bytes/frame"]
