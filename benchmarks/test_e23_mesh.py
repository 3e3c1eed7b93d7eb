"""E23 — parallel hub groups: breaking the socket engine's single-hub ceiling.

E19 showed the regression this experiment reverses: on the simulator the
sharded service scales with shard count, but over real sockets every frame
of every shard crossed one orchestrator process, so net throughput was
flat (51.4 → 47.7 cmds/s from 1 to 4 shards).  The mesh transport
(:mod:`repro.mesh`) splits the shard space across hub groups — hub 0 stays
the orchestrator and keeps the control plane, extra hubs are their own
processes that route only the shards they own and never materialize
payloads (attribution reads the shard straight off the frame bytes).

Reported is aggregate applied-command throughput (commands per wall
second) for the same uniform-key stream as the hub-group count grows,
plus the per-hub frame counters proving the load actually split.  Only the
mechanism is asserted: two best-of-2 wall-clock runs of 96 commands do not
order the 1-hub star and the 4-hub mesh reliably on a 2-core box (either
has come out ahead), so the throughput column is reported, not gated.
"""

from _util import write_report

from repro.mesh import MeshTopology
from repro.metrics.report import format_table
from repro.shard import ShardedService

N = 7
SHARDS = 4
COUNT = 96
HUBS = (1, 2, 4)
#: Runs per hub count; the best run is reported.  Throughput on a
#: shared single-core box is noise-below, never noise-above (load can
#: only slow a run down), so max-of-k is the robust estimator here.
RUNS = 2


def sweep():
    rows = []
    frames = {}
    for hubs in HUBS:
        best = None
        for seed in range(23, 23 + RUNS):
            report = ShardedService(
                n=N,
                shards=SHARDS,
                skew="uniform",
                contention=0.0,
                seed=seed,
                engine="net",
                mesh=MeshTopology(hubs=hubs),
            ).run(count=COUNT, timeout=60.0)
            assert not report.divergence
            assert report.commands == COUNT
            result = report.result
            assert not result.timed_out
            assert set(result.exit_codes.values()) == {0}
            if best is None or report.throughput > best.throughput:
                best = report
        report, result = best, best.result
        frames[hubs] = dict(result.hub_frame_counts)
        rows.append(
            {
                "hubs": hubs,
                "slots": report.slots,
                "throughput (cmds/s)": round(report.throughput, 3),
                "one-step rate": round(report.aggregate["one_step_frac"], 3),
                "hub frames": "/".join(
                    str(result.hub_frame_counts[h])
                    for h in sorted(result.hub_frame_counts)
                ),
            }
        )
    return rows, frames


def test_e23_mesh_hub_scaling(benchmark):
    rows, frames = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e23_mesh",
        format_table(
            rows,
            title=(
                f"E23: net throughput vs hub-group count "
                f"(n={N}, {SHARDS} shards, {COUNT} commands, uniform keys)"
            ),
        ),
    )
    # The mechanism: at 4 hubs every hub group carried node-facing frames.
    assert set(frames[4]) == {0, 1, 2, 3}
    assert all(count > 0 for count in frames[4].values())
    # The 1-hub cell is the plain star cluster: everything on hub 0.
    assert set(frames[1]) == {0}
