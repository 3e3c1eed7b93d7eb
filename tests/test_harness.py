"""Tests for the declarative scenario harness."""

import pytest

from repro.engine.events import DecideEvent, EventLog
from repro.errors import ConfigurationError
from repro.harness import (
    Equivocate,
    Scenario,
    Silent,
    all_algorithms,
    bosco_weak,
    dex_freq,
    dex_prv,
    run_once,
    twostep,
)
from repro.types import DecisionKind
from repro.workloads.inputs import unanimous


class TestAlgorithmSpecs:
    def test_registry_contents(self):
        names = {spec.name for spec in all_algorithms()}
        assert names == {
            "brasileiro",
            "izumi",
            "bosco-weak",
            "bosco-strong",
            "dex-freq",
            "dex-prv",
            "twostep",
        }

    def test_max_t(self):
        assert dex_freq().max_t(13) == 2
        assert dex_freq().max_t(7) == 1
        assert dex_freq().max_t(6) == 0
        assert bosco_weak().max_t(11) == 2

    def test_table1_metadata_present(self):
        for spec in all_algorithms():
            assert "processes" in spec.table1


class TestScenarioValidation:
    def test_default_t_is_maximum(self):
        scenario = Scenario(dex_freq(), unanimous(1, 13))
        assert scenario.config.t == 2

    def test_explicit_t_respected(self):
        scenario = Scenario(dex_freq(), unanimous(1, 13), t=1)
        assert scenario.config.t == 1

    def test_resilience_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(dex_freq(), unanimous(1, 6), t=1)

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(dex_freq(), unanimous(1, 7), faults={5: Silent(), 6: Silent()})

    def test_unknown_uc_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(dex_freq(), unanimous(1, 7), uc="magic").build()

    def test_crash_model_enforcement_mentions_fault(self):
        from repro.harness import brasileiro

        with pytest.raises(ConfigurationError, match="Equivocate"):
            Scenario(brasileiro(), unanimous(1, 4), faults={3: Equivocate(1, 2)})


class TestScenarioExecution:
    def test_run_once_shortcut(self):
        result = run_once(dex_freq(), unanimous(1, 7), seed=3)
        assert result.decided_value == 1

    def test_components_cover_all_processes(self):
        scenario = Scenario(dex_freq(), unanimous(1, 7), faults={6: Silent()})
        protocols, services = scenario.components()
        assert set(protocols) == set(range(7))
        assert "oracle-uc" in services

    def test_real_uc_has_no_services(self):
        scenario = Scenario(dex_freq(), unanimous(1, 7), uc="real")
        _, services = scenario.components()
        assert services == {}

    def test_seed_controls_determinism(self):
        r1 = Scenario(dex_freq(), [1, 1, 1, 1, 2, 2, 2], seed=9).run()
        r2 = Scenario(dex_freq(), [1, 1, 1, 1, 2, 2, 2], seed=9).run()
        assert r1.decisions == r2.decisions
        assert r1.stats.messages_sent == r2.stats.messages_sent

    def test_uc_step_cost_flows_through(self):
        from repro.sim.latency import ConstantLatency
        from repro.workloads.inputs import split

        result = Scenario(
            twostep(), split(1, 2, 4, 2), uc_step_cost=5,
            latency=ConstantLatency(1.0), seed=0,
        ).run()
        assert {d.step for d in result.correct_decisions.values()} == {5}

    def test_max_events_passes_through(self):
        scenario = Scenario(dex_freq(), unanimous(1, 7), max_events=123)
        assert scenario.build().max_events == 123

    def test_trace_enabled(self):
        log = EventLog()
        Scenario(dex_freq(), unanimous(1, 7), event_sink=log, seed=0).run()
        assert log.of_type(DecideEvent)

    def test_privileged_spec_parameterised(self):
        result = Scenario(dex_prv("GO"), ["GO"] * 6, seed=1).run()
        assert result.decided_value == "GO"
        assert {d.kind for d in result.correct_decisions.values()} == {
            DecisionKind.ONE_STEP
        }


class TestTopLevelExports:
    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_fault_kinds_exported(self):
        from repro import Collapse, Crash, Equivocate, Garbage, Silent, Spoiler

        for cls in (Silent, Crash, Equivocate, Garbage, Spoiler, Collapse):
            assert cls is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
