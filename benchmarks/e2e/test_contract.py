"""Contract checks for the end-to-end benchmark (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_contract.py``;
the smoke tests fork real node processes and take about a minute.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import layers  # noqa: E402
from bench import E2E_UNITS  # noqa: E402
from sink import LeanSink  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_commands  # noqa: E402

from repro.engine.events import (  # noqa: E402
    DeliverEvent,
    HubSaturatedEvent,
    LogEvent,
    RestartEvent,
    SendEvent,
)

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_names_match_the_code():
    # the contract lists the workloads the driver gates; the code has two more
    gated = [w["name"] for w in CONTRACT["workloads"]]
    assert gated == [name for name in WORKLOADS if name in gated]
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: WORKLOADS[name].why for name in gated
    }
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layers.UNITS
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["unit"] == "s"
    # 0.25 is the widest bound the benchmark contract admits
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_same_seed_same_inputs():
    assert make_commands(3, 64) == make_commands(3, 64)
    assert make_commands(3, 64) != make_commands(4, 64)
    for zipf in (False, True):
        commands = make_commands(3, 64, zipf)
        assert commands == make_commands(3, 64, zipf)
        assert len({(key, op) for key, op in commands}) == 64
    assert make_commands(3, 64, zipf=True) != make_commands(3, 64)


def _reachable(obj, seen=None):
    """Every object reachable from ``obj`` through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    for child in children:
        yield from _reachable(child, seen)


def test_lean_sink_never_retains_a_payload():
    sink = LeanSink()
    payload = ("set", "secret-key", 424242)
    sink.emit(SendEvent(0.1, 0, 1, payload, 1))
    sink.emit(DeliverEvent(0.2, 1, 0, payload, 1))
    sink.emit(LogEvent(0.3, 1, "shard.open", {"shard": 0, "slot": 0, "size": 1, "batch": payload}))
    sink.emit(LogEvent(0.5, 1, "shard.decide", {"shard": 0, "slot": 0, "kind": "one-step", "batch": payload}))
    sink.emit(HubSaturatedEvent(0.55, 1, 600, 512))
    sink.emit(RestartEvent(0.6, 2))
    sink.emit(LogEvent(0.7, 2, "recovery.replayed", {"slots": {0: 3}, "batch": payload}))
    sink.emit(LogEvent(0.9, 2, "recovery.caught_up", {"slots": {0: 3}}))
    assert sink.slot_latencies == pytest.approx([0.2])
    assert sink.kinds == {"one-step": 1}
    assert sink.recover_seconds == pytest.approx([0.3])
    assert sink.replayed_slots == 3
    assert sink.saturated_events == 1
    held = list(_reachable(sink))
    assert payload not in held
    assert "secret-key" not in held and 424242 not in held


def test_span_self_times_and_residual_sum_to_the_root():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    summary = tracer.summary(root)
    rows = {row["name"]: row for row in summary["rows"]}
    assert rows["a"]["count"] == 2 and rows["b"]["count"] == 2
    assert rows["a"]["self_s"] <= rows["a"]["total_s"]
    total = sum(row["self_s"] for row in summary["rows"]) + summary["residual_s"]
    assert total == pytest.approx(summary["root_s"], abs=1e-9)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "--workload", workload,
             "--seed", "5", "--seconds", "5", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in wanted}
        for m in wanted:  # printed by name with its unit, not only in the JSON
            assert re.search(
                rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b", proc.stdout, re.M
            ), (workload, m["name"])
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
