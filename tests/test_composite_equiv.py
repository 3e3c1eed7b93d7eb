"""Composite routing in one typed pass ≡ routing as an effect rewrite.

``tests/composite_reference.py`` keeps the rewrite-based routing — the
composite as an ``EffectRewriter``, the multiplexer deferring to it, the
shard node's own ``on_message`` for the rejoin evidence rule — and
:func:`reference_routing` installs it.  Every run here is made twice, once
each way, and must give the same event stream, event for event, and the
same ``RunResult``, field for field (decision times compared exactly):

* every registered algorithm that routes through a composite — DEX with
  either condition pair, BOSCO weak and strong, Brasileiro, Izumi and the
  two-step reference — under each fault its failure model admits;
* DEX over the real multivalued consensus (ACS children, nested
  composites);
* the sharded service under every lifecycle fault flavour, including a
  durable crash-recover run that serves settled slots through the rejoin
  evidence rule, and the service as the pipelined log (one command a
  slot).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.events import EventLog, LogEvent
from repro.engine.run import RunResult
from repro.harness import (
    Crash,
    Equivocate,
    Garbage,
    Scenario,
    Silent,
    Spoiler,
    bosco_strong,
    bosco_weak,
    brasileiro,
    dex_freq,
    dex_prv,
    izumi,
    twostep,
)
from repro.runtime import composite
from repro.runtime.effects import Broadcast, Envelope
from repro.runtime.protocol import Protocol
from repro.shard.router import ShardMultiplexer
from repro.shard.service import ShardNode
from repro.types import DecisionKind, SystemConfig
from repro.workloads.inputs import split, unanimous

from .composite_reference import ROUTING_MEMBERS, reference_routing
from .test_lifecycle import PIPELINED, SEEDS, SERVICE_FAULTS, run_service, stream

ALGORITHMS = [dex_freq, dex_prv, bosco_weak, bosco_strong, brasileiro, izumi, twostep]
BYZANTINE_FAULTS = {
    "equivocate": lambda seed: Equivocate(1, 2),
    "garbage": lambda seed: Garbage(seed=seed),
    "spoiler": lambda seed: Spoiler(fallback=2),
}
CRASH_FAULTS = {
    "silent": lambda seed: Silent(),
    "crash": lambda seed: Crash(budget=3),
}
CASES = [
    (make, fault)
    for make in ALGORITHMS
    for fault in [*(() if make().failure_model == "crash" else BYZANTINE_FAULTS), *CRASH_FAULTS]
]


def assert_same_result(result: RunResult, reference: RunResult, where) -> None:
    assert type(result) is type(reference), where
    for f in dataclasses.fields(reference):
        assert getattr(result, f.name) == getattr(reference, f.name), (f.name, where)


def twice(run):
    """``run(log)`` with the library's routing, then with the reference's:
    ``(result, log)`` of each."""
    log, reference_log = EventLog(), EventLog()
    result = run(log)
    with reference_routing():
        reference = run(reference_log)
    return (result, log), (reference, reference_log)


class TestReferenceIsInstalled:
    def test_the_reference_replaces_the_routing_and_leaves_with_the_block(self):
        library = {k: vars(composite.CompositeProtocol).get(k) for k in ROUTING_MEMBERS}
        with reference_routing():
            for name, value in ROUTING_MEMBERS.items():
                assert vars(composite.CompositeProtocol)[name] is value, name
            assert "on_message" in vars(ShardNode)
        assert {k: vars(composite.CompositeProtocol).get(k) for k in ROUTING_MEMBERS} == library
        assert "on_message" not in vars(ShardNode)
        assert vars(ShardMultiplexer)["on_message"].__module__ == "repro.shard.router"


class TestScenarios:
    @pytest.mark.parametrize(
        "make, fault", CASES, ids=[f"{m.__name__}-{f}" for m, f in CASES]
    )
    def test_streams_and_results_equal(self, make, fault):
        spec = make()
        n = spec.required_ratio + 1
        faults = {**BYZANTINE_FAULTS, **CRASH_FAULTS}[fault]
        for seed in SEEDS:
            inputs = split(1, 2, n, 3) if seed % 2 else unanimous(1, n)

            def run(log):
                return Scenario(
                    spec, inputs, faults={n - 1: faults(seed)}, seed=seed, event_sink=log
                ).run()

            (result, log), (reference, reference_log) = twice(run)
            where = (spec.name, fault, seed)
            assert stream(log) == stream(reference_log), where
            assert_same_result(result, reference, where)

    @pytest.mark.parametrize("fault", ["none", *BYZANTINE_FAULTS, *CRASH_FAULTS])
    def test_dex_over_the_multivalued_consensus(self, fault):
        kinds = set()
        make_fault = {**BYZANTINE_FAULTS, **CRASH_FAULTS}.get(fault)
        for seed in SEEDS:
            faults = {6: make_fault(seed)} if make_fault else None

            def run(log):
                return Scenario(
                    dex_freq(), split(1, 2, 7, 3), uc="real", faults=faults, seed=seed,
                    event_sink=log,
                ).run()

            (result, log), (reference, reference_log) = twice(run)
            where = (fault, seed)
            assert stream(log) == stream(reference_log), where
            assert_same_result(result, reference, where)
            kinds |= {d.kind for d in result.correct_decisions.values()}
        # the ACS children did decide something: the nested routing ran
        assert DecisionKind.UNDERLYING in kinds, fault


class Chatty(Protocol):
    """An instance that answers every message with one broadcast."""

    def on_message(self, sender, payload):
        return [Broadcast(("re", payload))]


class Hooked(ShardMultiplexer):
    def __init__(self):
        super().__init__(0, SystemConfig(7, 1), lambda shard, slot, value: Chatty(0, None), 2)
        self.seen = []

    def on_instance_message(self, sender, component):
        self.seen.append((sender, component))
        return [self.log("hook", component=component)]


class TestEvidenceHook:
    """Where ``ShardNode``'s rejoin evidence rule now runs: the hook sees
    exactly the top-level instance payloads, and what it returns precedes
    the routed effects — on whole runs a late proposal reaches a settled
    instance, which answers nothing, so only here is the order visible."""

    def test_a_top_level_payload_is_shown_first(self):
        mux = Hooked()
        out = mux.on_message(3, Envelope("s1.2", "proposal"))
        assert out == [
            mux.log("hook", component="s1.2"),
            Broadcast(Envelope("s1.2", ("re", "proposal"))),
        ]
        assert mux.seen == [(3, "s1.2")]

    def test_a_sub_component_envelope_is_only_routed(self):
        mux = Hooked()
        out = mux.on_message(3, Envelope("s1.2", Envelope("idb", "echo")))
        assert out == [Broadcast(Envelope("s1.2", ("re", Envelope("idb", "echo"))))]
        assert mux.seen == []

    def test_the_hook_runs_for_a_name_that_routes_nowhere(self):
        mux = Hooked()
        out = mux.on_message(3, Envelope("s01.2", "proposal"))
        assert [e.event for e in out] == ["hook", "unknown-component"]
        assert mux.seen == [(3, "s01.2")]


class TestService:
    @pytest.mark.parametrize("flavour", list(SERVICE_FAULTS))
    def test_sharded_service(self, monkeypatch, tmp_path, flavour):
        served = 0
        for seed in SEEDS:
            report, log, _ = run_service(
                monkeypatch, ShardNode, flavour, seed, tmp_path / f"typed{seed}"
            )
            with reference_routing():
                reference, reference_log, _ = run_service(
                    monkeypatch, ShardNode, flavour, seed, tmp_path / f"reference{seed}"
                )
            where = (flavour, seed)
            assert stream(log) == stream(reference_log), where
            assert_same_result(report.result, reference.result, where)
            assert dataclasses.replace(report, result=None) == dataclasses.replace(
                reference, result=None
            ), where
            served += sum(
                e.event == "recovery.re_served" for e in log.of_type(LogEvent)
            )
        if flavour == "crash-recover":
            # the evidence rule answered late proposals with settled slots
            assert served > 0

    @pytest.mark.parametrize("flavour", ["healthy", "crash", "equivocator", "garbage"])
    def test_pipelined_log(self, monkeypatch, tmp_path, flavour):
        for seed in SEEDS:

            def run():
                return run_service(
                    monkeypatch, ShardNode, flavour, seed, tmp_path, count=12, **PIPELINED
                )

            report, log, _ = run()
            with reference_routing():
                reference, reference_log, _ = run()
            where = (flavour, seed)
            assert stream(log) == stream(reference_log), where
            assert_same_result(report.result, reference.result, where)
            assert report.digest == reference.digest is not None, where
