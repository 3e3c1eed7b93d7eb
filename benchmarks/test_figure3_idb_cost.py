"""F3 — reproduce the appendix claim behind Figure 3 (algorithm IDB):

"a single communication step of the identical broadcast is realized by two
communication steps of standard send/receive primitives", and the protocol
costs ``O(n²)`` point-to-point messages per broadcast.

The bench measures, per system size: the causal depth of every
``Id-Receive`` (exactly 2 under fair schedules) and the total message count
for ``n`` concurrent broadcasts (``n² (n+1)`` = init ``n²`` + echo ``n³``).
"""

from _util import write_report

from repro.broadcast.idb import DELIVER_TAG, IdbEcho, IdenticalBroadcast
from repro.engine.events import DeliverEvent, EventLog
from repro.metrics.report import format_table
from repro.sim.latency import ConstantLatency
from repro.sim.runner import Simulation
from repro.types import SystemConfig


def run_idb(n: int, t: int):
    config = SystemConfig(n, t)
    protocols = {
        pid: IdenticalBroadcast(pid, config, initial_value=pid)
        for pid in config.processes
    }
    log = EventLog()
    sim = Simulation(config, protocols, latency=ConstantLatency(1.0), event_sink=log)
    result = sim.run_to_quiescence()
    echo_depths = {
        e.depth for e in log.of_type(DeliverEvent) if isinstance(e.payload, IdbEcho)
    }
    deliveries = sum(
        1 for pid in config.processes for d in result.outputs[pid] if d.tag == DELIVER_TAG
    )
    return {
        "n": n,
        "t": t,
        "plain steps per IDB step": max(echo_depths),
        "messages (n broadcasts)": result.stats.messages_sent,
        "expected n^2(n+1)": n * n * (n + 1),
        "deliveries": deliveries,
    }


def test_figure3_idb_cost(benchmark):
    sizes = [(5, 1), (9, 2), (13, 3), (17, 4)]

    def run_all():
        return [run_idb(n, t) for n, t in sizes]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    write_report(
        "figure3_idb_cost",
        format_table(rows, title="Figure 3 (IDB): step and message cost per size"),
    )
    for row in rows:
        assert row["plain steps per IDB step"] == 2
        assert row["messages (n broadcasts)"] == row["expected n^2(n+1)"]
        assert row["deliveries"] == row["n"] ** 2  # everyone delivers everyone
