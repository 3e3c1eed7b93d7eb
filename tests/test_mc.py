"""Unit tests for the model checker: explorer semantics (delay budgets,
sleep sets, ample collapse), fingerprinting, counterexample minimization
and replay, and the verification suite plumbing."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.harness import all_algorithms
from repro.mc.counterexample import (
    Counterexample,
    minimize,
    replay_matches,
    replay_on_simulator,
    replay_with_events,
    run_schedule,
)
from repro.mc.explorer import Explorer
from repro.mc.fingerprint import fingerprint
from repro.mc.invariants import Agreement
from repro.mc.scenario import (
    algorithm_scenario,
    build_invariants,
    build_simulation,
    build_system,
    byzantine_variants,
    idb_scenario,
)
from repro.mc.state import McSystem
from repro.mc.suite import CheckSpec, run_check, suite_checks
from repro.runtime.effects import Broadcast, Decide
from repro.runtime.protocol import Protocol
from repro.types import DecisionKind, SystemConfig

DATA = Path(__file__).parent / "data"


class FirstValue(Protocol):
    """Toy ordering-sensitive protocol: broadcast your id at start, decide
    the first id you receive.  Under FIFO-per-destination delivery every
    process receives p0's broadcast first (p0 starts first), so agreement
    holds at delay budget 0 and breaks as soon as one message may be
    overtaken."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.decided = False

    def on_start(self):
        return [Broadcast(("val", self.process_id))]

    def on_message(self, sender, payload):
        if self.decided:
            return []
        self.decided = True
        return [Decide(payload[1], DecisionKind.ONE_STEP)]


def toy_system(n: int = 3) -> McSystem:
    config = SystemConfig(n, 0)
    return McSystem(config, {pid: FirstValue(pid, config) for pid in range(n)})


class TestExplorerDelayBudgets:
    def test_fifo_budget_zero_is_safe(self):
        result = Explorer(toy_system(), [Agreement()], delay_budget=0).run()
        assert result.ok
        assert result.complete

    def test_budget_one_finds_the_overtake_violation(self):
        result = Explorer(toy_system(), [Agreement()], delay_budget=1).run()
        assert not result.ok
        assert result.trace is not None
        assert result.violations[0].invariant == "agreement"

    def test_unbounded_exploration_finds_it_too(self):
        result = Explorer(toy_system(), [Agreement()], delay_budget=None).run()
        assert not result.ok

    def test_adversarial_order_reaches_the_same_verdicts(self):
        for budget, ok in [(0, True), (1, False)]:
            result = Explorer(
                toy_system(), [Agreement()], delay_budget=budget, order="adversarial"
            ).run()
            assert result.ok is ok

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            Explorer(toy_system(), [], order="random")

    def test_state_cap_marks_incomplete(self):
        result = Explorer(
            toy_system(), [], delay_budget=None, max_states=5
        ).run()
        assert not result.complete

    def test_collect_all_violations(self):
        result = Explorer(
            toy_system(),
            [Agreement()],
            delay_budget=1,
            stop_on_violation=False,
        ).run()
        assert len(result.violations) > 1
        assert result.complete

    def test_trace_replays_to_the_violation(self):
        result = Explorer(toy_system(), [Agreement()], delay_budget=1).run()
        final = run_schedule(toy_system(), result.trace)
        assert final is not None
        assert Agreement().check(final) is not None


class TestExplorerAgainstBruteForce:
    """Cross-check the reduced search against naive enumeration on the toy
    system: sleep sets, fingerprint merging and the ample collapse must not
    lose any reachable decision vector within a delay budget."""

    def brute_force_vectors(self, budget):
        """All correct-decision vectors reachable with <= budget overtaken
        messages, by unreduced recursive enumeration (n=2 keeps the
        factorial tree small)."""
        vectors = set()

        def recurse(system, delayed, remaining):
            if system.all_correct_decided() or not system.pending:
                vectors.add(
                    tuple(sorted(
                        (pid, value)
                        for pid, (value, _, _) in system.correct_decisions().items()
                    ))
                )
                return
            for uid, overtakes in system.delivery_overtakes():
                cost = len(set(overtakes) - delayed)
                if remaining is not None and cost > remaining:
                    continue
                token = system.snapshot()
                system.deliver(uid)
                recurse(
                    system,
                    (delayed | set(overtakes)) - {uid},
                    None if remaining is None else remaining - cost,
                )
                system.restore(token)

        system = toy_system(2)
        system.start()
        recurse(system, set(), budget)
        return vectors

    @pytest.mark.parametrize("budget", [0, 1, None])
    def test_violation_existence_matches(self, budget):
        expected = any(
            len({value for _, value in vector}) > 1
            for vector in self.brute_force_vectors(budget)
        )
        result = Explorer(
            toy_system(2), [Agreement()], delay_budget=budget
        ).run()
        assert (not result.ok) is expected

    def test_budget_zero_reaches_exactly_the_fifo_vector(self):
        assert self.brute_force_vectors(0) == {((0, 0), (1, 0))}


class TestFingerprint:
    def test_fresh_systems_agree(self):
        spec = algorithm_scenario("dex-freq", 7, 1, [1, 1, 1, 1, 1, 2, 2])
        a, b = build_system(spec), build_system(spec)
        a.start(), b.start()
        assert a.fingerprint() == b.fingerprint()

    def test_commuting_deliveries_converge(self):
        a, b = toy_system(), toy_system()
        a.start(), b.start()
        # Deliveries to different destinations commute; the fingerprint is
        # uid-independent, so both orders land on the same digest.
        a.deliver(0), a.deliver(4)
        b.deliver(4), b.deliver(0)
        assert a.fingerprint() == b.fingerprint()

    def test_different_states_differ(self):
        a, b = toy_system(), toy_system()
        a.start(), b.start()
        a.deliver(0)
        assert a.fingerprint() != b.fingerprint()

    def test_snapshot_restore_roundtrip(self):
        system = toy_system()
        system.start()
        token = system.snapshot()
        before = system.fingerprint()
        system.deliver(0), system.deliver(4)
        system.restore(token)
        assert system.fingerprint() == before
        # The token survives a second restore.
        system.deliver(0)
        system.restore(token)
        assert system.fingerprint() == before

    def test_fingerprint_covers_nested_containers(self):
        assert fingerprint({"a": [1, {2}]}) == fingerprint({"a": [1, {2}]})
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint([1, 2]) != fingerprint([2, 1])


class TestCounterexample:
    def make_violation(self):
        result = Explorer(toy_system(), [Agreement()], delay_budget=1).run()
        violation = result.violations[0]
        return Counterexample(
            spec={},
            schedule=list(result.trace),
            invariant=violation.invariant,
            detail=violation.detail,
            decisions={
                pid: list(decision)
                for pid, decision in violation.decisions.items()
            },
        )

    def test_json_roundtrip(self):
        ce = self.make_violation()
        back = Counterexample.from_json(ce.to_json())
        assert back.schedule == ce.schedule
        assert back.invariant == ce.invariant
        assert back.decisions == ce.decisions

    def test_minimize_is_one_minimal(self):
        ce = self.make_violation()
        minimized = minimize(
            ce, lambda spec: toy_system(), lambda spec: [Agreement()]
        )
        assert minimized.minimized
        # The toy violation needs exactly two deliveries: one process
        # receiving an overtaking broadcast, another receiving p0's.
        assert len(minimized.schedule) == 2
        final = run_schedule(toy_system(), minimized.schedule)
        assert Agreement().check(final) is not None
        # 1-minimality: dropping any remaining delivery breaks it.
        for index in range(len(minimized.schedule)):
            candidate = (
                minimized.schedule[:index] + minimized.schedule[index + 1 :]
            )
            final = run_schedule(toy_system(), candidate)
            assert final is None or Agreement().check(final) is None

    def test_infeasible_schedule_returns_none(self):
        assert run_schedule(toy_system(), [(9, 9, "nope")]) is None


class TestStoredUnderResilientCounterexample:
    """The checker-discovered n=4 under-resilient attack, stored as data:
    three delayed messages break agreement at crash-grade margins.  The
    trace must replay to the violation on both execution engines."""

    @pytest.fixture()
    def ce(self):
        text = (DATA / "underres_n4_counterexample.json").read_text()
        return Counterexample.from_json(text)

    def test_replays_to_agreement_violation_on_the_checker(self, ce):
        final = run_schedule(build_system(ce.spec), ce.schedule)
        assert final is not None
        assert Agreement().check(final) is not None
        replayed = {
            pid: [value, kind.value, step]
            for pid, (value, kind, step) in final.correct_decisions().items()
        }
        assert replayed == ce.decisions

    def test_replays_identically_on_the_simulator(self, ce):
        result = replay_on_simulator(ce, build_simulation)
        assert not result.agreement_holds()
        assert replay_matches(ce, result)

    def test_minimized_trace_stays_minimal(self, ce):
        again = minimize(ce, build_system, build_invariants)
        assert len(again.schedule) == len(ce.schedule)

    def test_replay_carries_the_shared_event_stream(self, ce):
        # Replaying a stored trace must emit the same typed event stream
        # every execution engine emits, so the violation renders in the
        # cross-engine vocabulary (deliveries + decisions), not
        # checker-internal records.
        from repro.engine.events import DecideEvent, DeliverEvent

        final, log = replay_with_events(ce, build_system)
        assert final is not None
        deliveries = log.of_type(DeliverEvent)
        assert len(deliveries) == len(ce.schedule)
        decided = {
            event.pid: [event.value, event.kind.value, event.step]
            for event in log.of_type(DecideEvent)
            if event.pid in ce.decisions
        }
        assert decided == ce.decisions
        # The log renders the violation itself: two different values.
        assert len({event.value for event in log.of_type(DecideEvent)}) > 1


class TestSuite:
    def test_safety_check_passes_with_tight_bounds(self):
        spec = CheckSpec(
            name="idb-tiny",
            description="tiny idb sweep",
            base_spec=idb_scenario(5, 1, [1, 1, 1, 2, 2]),
            byzantine_pid=4,
            delay_budget=0,
            max_states=2_000,
            variant_budget=2,
        )
        report = run_check(spec)
        assert report.ok
        assert not report.violation_found
        assert len(report.variants) == 2
        assert report.describe()["ok"] is True

    def test_boundary_check_against_stored_attack(self):
        # Seed the boundary check with the stored minimal schedule length:
        # budget 2 must stay clean (the attack needs three delays), which
        # is the cheap half of the iterative-deepening claim.
        base = [c for c in suite_checks() if c.name == "dex-under-resilient-n4"][0]
        result = Explorer(
            build_system(base.base_spec),
            build_invariants(base.base_spec),
            delay_budget=1,
            max_states=20_000,
        ).run()
        assert result.ok

    def test_variant_enumeration_is_deterministic_and_bounded(self):
        spec = algorithm_scenario(
            "dex-freq", 5, 1, [1, 1, 1, 2, 2], enforce_resilience=False
        )
        all_variants = byzantine_variants(spec, 4)
        assert all_variants == byzantine_variants(spec, 4)
        assert all_variants[0] == {"kind": "silent"}
        assert byzantine_variants(spec, 4, 3) == all_variants[:3]
        assert any(v["kind"] == "saboteur" for v in all_variants)

    def test_every_registered_algorithm_has_a_row(self):
        names = {spec.name for spec in all_algorithms()}
        for smoke in (False, True):
            checked = {c.base_spec.get("algorithm") for c in suite_checks(smoke)}
            assert names <= checked, names - checked

    @pytest.mark.parametrize("name", ["bosco-weak-n6", "brasileiro-n4", "izumi-n4", "twostep-n4"])
    def test_baseline_smoke_row_is_ok_and_complete(self, name):
        (check,) = [c for c in suite_checks(smoke=True) if c.name == name]
        report = run_check(check)
        assert report.ok and report.complete

    def test_one_step_validity_only_where_a_pair_is_built(self):
        dex = algorithm_scenario("dex-freq", 7, 1, [1, 1, 1, 1, 1, 2, 2])
        bosco = algorithm_scenario("bosco-weak", 6, 1, [1, 1, 1, 1, 2, 2])
        names = lambda spec: [type(i).__name__ for i in build_invariants(spec)]  # noqa: E731
        assert names(dex) == ["Agreement", "Unanimity", "GuaranteedOneStep"]
        assert names(bosco) == ["Agreement", "Unanimity"]

    def test_crash_model_gets_the_crash_template_only(self):
        spec = algorithm_scenario("brasileiro", 4, 1, [1, 1, 2, 2])
        assert [v["kind"] for v in byzantine_variants(spec, 3)] == [
            "silent", "crash", "crash"
        ]
        with pytest.raises(ConfigurationError, match="crash-model"):
            build_system({**spec, "byzantine": {"3": {"kind": "saboteur", "uc_value": 1}}})

    def test_variants_decode_to_fault_plane_faults(self):
        spec = algorithm_scenario(
            "dex-freq", 7, 1, [1] * 7,
            byzantine={6: {"kind": "equivocate", "value_a": 1, "value_b": 2, "group_a": [0]}},
        )
        wrapper = build_system(spec).protocols[6]
        assert type(wrapper).__name__ == "TwoFacedBehavior"
        assert [wrapper.group_of(dst) for dst in range(3)] == ["a", "b", "b"]

    def test_unknown_names_are_refused(self):
        spec = algorithm_scenario("twostep", 4, 1, [1, 1, 2, 2])
        with pytest.raises(ConfigurationError, match="unknown algorithm 'paxos'"):
            build_system({**spec, "algorithm": "paxos"})
        with pytest.raises(ConfigurationError, match="unknown scenario kind 'dex'"):
            build_system({**spec, "kind": "dex"})
        with pytest.raises(ConfigurationError, match="unknown byzantine kind 'two-faced'"):
            build_system({**spec, "byzantine": {"3": {"kind": "two-faced"}}})

    def test_smoke_subset_is_small(self):
        smoke = suite_checks(smoke=True)
        assert 0 < len(smoke) < len(suite_checks())
        assert all(check.smoke for check in smoke)


class TestCliCheck:
    def test_check_json_smoke(self, monkeypatch, capsys):
        import repro.mc.suite as suite
        from repro.cli import main
        from repro.mc.suite import CheckReport

        def fake_run_suite(smoke=False):
            assert smoke
            return [
                CheckReport(
                    name="stub",
                    description="stubbed",
                    config="n=5 t=1 kind=idb",
                    expect_violation=False,
                    delay_budget=0,
                )
            ]

        monkeypatch.setattr(suite, "run_suite", fake_run_suite)
        assert main(["check", "--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "stub"
        assert payload[0]["ok"] is True
