"""E31 — a replica's state follows its open slots, not its history.

A decided DEX instance retires once it is inert (decided, every origin
echoed, the underlying consensus activated), the IDB drops an origin's
witness book when it accepts that origin, and the oracle drops an
instance's proposal book when it decides.  This table counts what a
replica still holds, on healthy ``sim`` runs of three lengths.

Counts only, so the file diffs.  Each cell is the range over the seven
replicas.  The *before* columns come from the same code with retirement
switched off in a test-local subclass (``_sweep`` is a no-op) — every
instance then lives to the end of the run, as at the parent commit — and,
for the two books this PR frees in place, from what that run shows was
once held: one witness set per accepted origin, one proposal book per
decided oracle instance.

Three more books are counted the same way, each *before* derived from
what the run shows was once held:

* the multiplexer's slot keys — its decided and proposed slots, once one
  key each, now per-shard slot sets (a floor, below which every slot is a
  member, plus the members above it); *before* is every member, *after*
  the members above the floors;
* the service's slot fold (hub 0's ``ShardStreamSink``, one per run, so
  one number) — once an open and a decide record per decision to the end
  of the run, now only the records still waiting for their partner and
  each replica's folded slots above its floor; the report's own inputs,
  one latency per decision and one step count per slot, are counted on
  neither side;
* the key-value store's command log, deleted — ``ShardNode.applied`` is
  the one applied log; *before* is the commands each replica applied.

Expected shape: the *before* columns grow with the run, the *after*
columns do not — the maximum of live instances is the same, within ± 2,
at 512 and at 8 192 commands, and the three books end the same size at
every length.
"""

from _util import write_report

from repro.metrics.report import format_table
from repro.shard import service as shard_service
from repro.shard.metrics import ShardStreamSink
from repro.shard.service import ShardedService, ShardNode, shard_workload
from repro.underlying.oracle import SERVICE_NAME

N = 7
SHARDS = 4
COMMANDS = (512, 2048, 8192)
SEED = 31


class PeakNode(ShardNode):
    """Records the most instances this replica ever held at once."""

    peak = 0

    def add_child(self, name, child):
        child = super().add_child(name, child)
        self.peak = max(self.peak, len(self._children))
        return child


class EternalNode(PeakNode):
    def _sweep(self, shard):
        pass


def spread(values) -> str:
    low, high = min(values), max(values)
    return str(low) if low == high else f"{low}-{high}"


def pair(before, after) -> str:
    return f"{spread(before)} -> {spread(after)}"


def census(node_class, commands):
    """One healthy run; per replica: peak and final live instances, witness
    sets alive, origins accepted by the instances still alive, slot keys
    and commands applied; the slot fold's records."""
    previous = shard_service.ShardNode
    shard_service.ShardNode = node_class
    fold = ShardStreamSink(SHARDS)
    try:
        service = ShardedService(n=N, shards=SHARDS, seed=SEED)
        deployment = service.deployment(shard_workload(commands, seed=SEED), fold)
    finally:
        shard_service.ShardNode = previous
    result = deployment.run("sim")
    assert result.agreement_holds() and not result.undecided_correct
    nodes = list(deployment.protocols.values())
    idbs = [[dex.child("idb") for dex in node._children.values()] for node in nodes]
    oracle = deployment.services[SERVICE_NAME]
    slot_sets = [node.decided + node._proposed for node in nodes]
    waiting = len(fold._opens) + len(fold._waiting)
    return {
        "slot keys": [sum(s.floor + len(s._above) for s in sets) for sets in slot_sets],
        "slot keys above": [sum(len(s._above) for s in sets) for sets in slot_sets],
        # every folded decision was an open and a decide record
        "fold records": 2 * sum(map(len, fold._latencies)) + waiting,
        "fold books": waiting + sum(len(s._above) for s in fold._decided.values()),
        "commands applied": [
            sum(len(batch) for batches in node.applied.values() for batch in batches)
            for node in nodes
        ],
        "slots": sum(len(batches) for _, batches in result.decided_value),
        "peak": [node.peak for node in nodes],
        "end": [len(node._children) for node in nodes],
        "witness_sets": [
            sum(len(book) for idb in row for book in idb._witnesses.values())
            for row in idbs
        ],
        "accepted": [sum(len(idb._accepted) for idb in row) for row in idbs],
        "oracle_books": len(oracle._proposals),
        "oracle_decisions": len(oracle._decisions),
    }


def sweep():
    rows, peaks, books, windows = [], {}, {}, {}
    for commands in COMMANDS:
        before = census(EternalNode, commands)
        after = census(PeakNode, commands)
        assert before["slots"] == after["slots"]
        assert before["oracle_decisions"] == after["oracle_decisions"]
        peaks[commands] = after["peak"]
        rows.append(
            {
                "commands": commands,
                "slots": after["slots"],
                "live instances, max": pair(before["peak"], after["peak"]),
                "live instances, end": pair(before["end"], after["end"]),
                "witness sets, end": pair(before["accepted"], after["witness_sets"]),
                "oracle proposal books, end": pair(
                    [before["oracle_decisions"]], [after["oracle_books"]]
                ),
                "mux slot keys, end": pair(after["slot keys"], after["slot keys above"]),
                "slot fold records, end": f"{after['fold records']} -> {after['fold books']}",
                "KV log, end": pair(after["commands applied"], [0]),
            }
        )
        books[commands] = after["oracle_books"]
        windows[commands] = (max(after["slot keys above"]), after["fold books"])
        # every instance the reference holds was held to the end
        assert set(before["peak"]) == set(before["end"]) == {before["slots"]}
    return rows, peaks, books, windows


def test_e31_instance_lifecycle(benchmark):
    rows, peaks, books, windows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_report(
        "e31_lifecycle",
        format_table(
            rows,
            title=(
                f"E31: what a replica holds, before -> after (range over the {N} "
                f"replicas), healthy sim runs, {SHARDS} shards, seed {SEED}"
            ),
        ),
    )
    # The bound: live instances do not depend on the run's length …
    assert abs(max(peaks[COMMANDS[0]]) - max(peaks[COMMANDS[-1]])) <= 2
    # … and stay a small multiple of the shard count.
    assert all(peak <= SHARDS * 4 for run in peaks.values() for peak in run)
    # Only an instance still short of its quorum when the run ends (the
    # seventh digest stops it) has a proposal book.
    assert all(open_books <= SHARDS for open_books in books.values())
    # The three books hold no key per settled slot: they end the same size
    # at every run length.
    assert len(set(windows.values())) == 1, windows
