"""Tests for the synchronous engine and the one-round condition-based
consensus (the Mostefaoui et al. Table 1 row)."""

import pytest

from repro.baselines.crash_onestep import crash_one_step_level
from repro.baselines.sync_onestep import SyncOneStepConsensus, SyncRound1
from repro.conditions.views import View
from repro.errors import SimulationError
from repro.sim.synchronous import (
    CrashEvent,
    SynchronousSimulation,
    SyncProtocol,
)
from repro.types import SystemConfig
from repro.workloads.inputs import split, unanimous, with_frequency_gap


def build(inputs, t, crashes=None, seed=0):
    n = len(inputs)
    config = SystemConfig(n, t)
    protocols = {
        pid: SyncOneStepConsensus(pid, config, inputs[pid])
        for pid in config.processes
    }
    return SynchronousSimulation(config, protocols, crashes, seed=seed)


class _Echo(SyncProtocol):
    """Round-counting fixture protocol."""

    def first_message(self):
        return ("hello", self.process_id)

    def on_round(self, round_, received):
        if round_ >= 2:
            return None, len(received)
        return ("again", self.process_id), None


class TestEngine:
    def test_lockstep_delivery(self):
        config = SystemConfig(4, 1)
        protocols = {pid: _Echo(pid, config) for pid in config.processes}
        result = SynchronousSimulation(config, protocols).run(max_rounds=3)
        # round 2: everyone heard all 4 round-2 messages
        assert all(d.value == 4 for d in result.decisions.values())
        assert all(d.round == 2 for d in result.decisions.values())

    def test_crash_stops_sender(self):
        config = SystemConfig(4, 1)
        protocols = {pid: _Echo(pid, config) for pid in config.processes}
        crashes = {3: CrashEvent(round=2, delivered_to=frozenset())}
        result = SynchronousSimulation(config, protocols, crashes).run(max_rounds=3)
        for pid in range(3):
            assert result.decisions[pid].value == 3  # p3's round-2 message lost

    def test_partial_delivery_on_crash(self):
        config = SystemConfig(4, 1)
        protocols = {pid: _Echo(pid, config) for pid in config.processes}
        crashes = {3: CrashEvent(round=2, delivered_to=frozenset({0}))}
        result = SynchronousSimulation(config, protocols, crashes).run(max_rounds=3)
        assert result.decisions[0].value == 4
        assert result.decisions[1].value == 3

    def test_too_many_crashes_rejected(self):
        config = SystemConfig(4, 1)
        protocols = {pid: _Echo(pid, config) for pid in config.processes}
        with pytest.raises(SimulationError):
            SynchronousSimulation(
                config, protocols, {0: CrashEvent(1), 1: CrashEvent(1)}
            )

    def test_protocol_cover_enforced(self):
        config = SystemConfig(3, 1)
        with pytest.raises(SimulationError):
            SynchronousSimulation(config, {0: _Echo(0, config)})


class TestConditionLevels:
    def test_adaptive_level_shape(self):
        t = 2
        assert crash_one_step_level(View(unanimous(1, 9)), t) == 2  # gap 9 > 6
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 5)), t) == 1
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 3)), t) == 0
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 1)), t) is None


class TestSyncConsensus:
    def test_unanimous_decides_round_one(self):
        result = build(unanimous(1, 5), t=2).run(max_rounds=4)
        assert result.decided_value == 1
        assert {d.round for d in result.correct_decisions.values()} == {1}

    def test_contended_decides_by_t_plus_one(self):
        result = build(split(1, 2, 5, 2), t=2).run(max_rounds=4)
        assert result.agreement_holds()
        assert result.max_decision_round <= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_with_mid_round_crashes(self, seed):
        crashes = {4: CrashEvent(round=1), 3: CrashEvent(round=2)}
        result = build(split(1, 2, 5, 2), t=2, crashes=crashes, seed=seed).run(4)
        assert result.agreement_holds()
        assert result.all_correct_decided()

    @pytest.mark.parametrize("seed", range(6))
    def test_adaptiveness_one_round_iff_f_le_k(self, seed):
        """The same staircase as E3, in the synchronous model: level-k
        inputs decide in round 1 iff f <= k (crashers drawn from the
        majority proposers, the adversarial placement)."""
        n, t = 9, 2
        inputs = with_frequency_gap(1, 2, n, 5)  # level 1: gap > t + 2k
        for f, expect_round_one in [(0, True), (1, True), (2, False)]:
            crashes = {
                pid: CrashEvent(round=1, delivered_to=frozenset())
                for pid in range(f)
            }
            result = build(inputs, t=t, crashes=crashes, seed=seed).run(t + 2)
            rounds = {d.round for d in result.correct_decisions.values()}
            assert result.agreement_holds()
            if expect_round_one:
                assert rounds == {1}, (f, rounds)

    def test_minimal_system_t_plus_one(self):
        """The row's headline: works with n = t + 1 processes."""
        result = build(unanimous(1, 3), t=2).run(max_rounds=4)
        assert result.decided_value == 1
        assert {d.round for d in result.correct_decisions.values()} == {1}

    @pytest.mark.parametrize("seed", range(4))
    def test_fast_decider_crashing_does_not_poison(self, seed):
        """A round-1 decider that crashes immediately afterwards must not
        leave the survivors undecided or disagreeing."""
        n, t = 5, 2
        inputs = with_frequency_gap(1, 2, 5, 3)  # gap 3 > t: round-1-able
        crashes = {
            0: CrashEvent(round=2, delivered_to=frozenset({1})),
            4: CrashEvent(round=1, delivered_to=frozenset()),
        }
        result = build(inputs, t=t, crashes=crashes, seed=seed).run(t + 2)
        assert result.agreement_holds()
        assert result.all_correct_decided()

    def test_validity_value_was_proposed(self):
        for seed in range(4):
            result = build([1, 2, 1, 2, 3], t=2, seed=seed).run(4)
            assert result.decided_value in {1, 2, 3}
