"""Tests for the synchronous crash model on the lockstep engine and the
one-round condition-based consensus (the Mostefaoui et al. Table 1 row)."""

import pytest

from repro.baselines.crash_onestep import crash_one_step_level
from repro.byzantine.adversary import RoundCrashBehavior
from repro.conditions.views import View
from repro.errors import SimulationError
from repro.harness import RoundCrash, Scenario, sync_onestep
from repro.runtime.effects import Broadcast, Decide
from repro.runtime.protocol import Protocol
from repro.sim.synchronous import LockstepSimulation
from repro.types import BOTTOM, DecisionKind, SystemConfig
from repro.workloads.inputs import split, unanimous, with_frequency_gap


def run(inputs, t, crashes=None, seed=0):
    return Scenario(
        sync_onestep(), inputs, t=t, faults=crashes, seed=seed, engine="sync"
    ).run()


class _Echo(Protocol):
    """Round-counting fixture: broadcasts once a round, ends a round after
    one item per process, and at the end of round 2 decides how many of
    that round's items were messages rather than ``⊥``."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.round, self.heard, self.messages = 1, 0, 0

    def on_start(self):
        return [Broadcast(("hello", self.process_id))]

    def on_message(self, sender, payload):
        self.heard += 1
        self.messages += payload is not BOTTOM
        if self.heard < self.n:
            return []
        if self.round == 2:
            return [Decide(self.messages, DecisionKind.ONE_STEP)]
        self.round, self.heard, self.messages = self.round + 1, 0, 0
        return [Broadcast(("again", self.process_id))]


def _echoes(config, crashes=None):
    protocols = {pid: _Echo(pid, config) for pid in config.processes}
    for pid, (round_, delivered_to) in (crashes or {}).items():
        protocols[pid] = RoundCrashBehavior(protocols[pid], round_, delivered_to)
    return LockstepSimulation(config, protocols, faulty=set(crashes or ()))


class TestEngine:
    def test_lockstep_delivery(self):
        result = _echoes(SystemConfig(4, 1)).run_until_decided()
        # round 2: everyone heard all 4 round-2 messages
        assert all(d.value == 4 for d in result.decisions.values())
        assert all(d.step == 2 and d.time == 2.0 for d in result.decisions.values())

    def test_crash_stops_sender(self):
        crashes = {3: (2, frozenset())}
        result = _echoes(SystemConfig(4, 1), crashes).run_until_decided()
        for pid in range(3):
            assert result.decisions[pid].value == 3  # p3's round-2 message lost

    def test_partial_delivery_on_crash(self):
        crashes = {3: (2, frozenset({0}))}
        result = _echoes(SystemConfig(4, 1), crashes).run_until_decided()
        assert result.decisions[0].value == 4
        assert result.decisions[1].value == 3

    def test_too_many_crashes_rejected(self):
        config = SystemConfig(4, 1)
        with pytest.raises(SimulationError):
            _echoes(config, {0: (1, frozenset()), 1: (1, frozenset())})

    def test_protocol_cover_enforced(self):
        config = SystemConfig(3, 1)
        with pytest.raises(SimulationError):
            LockstepSimulation(config, {0: _Echo(0, config)})


class TestConditionLevels:
    def test_adaptive_level_shape(self):
        t = 2
        assert crash_one_step_level(View(unanimous(1, 9)), t) == 2  # gap 9 > 6
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 5)), t) == 1
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 3)), t) == 0
        assert crash_one_step_level(View(with_frequency_gap(1, 2, 9, 1)), t) is None


class TestSyncConsensus:
    """A decision's step is the round it was taken in."""

    def test_unanimous_decides_round_one(self):
        result = run(unanimous(1, 5), t=2)
        assert result.decided_value == 1
        assert {d.step for d in result.correct_decisions.values()} == {1}
        assert {d.kind for d in result.correct_decisions.values()} == {
            DecisionKind.ONE_STEP
        }

    def test_contended_decides_by_t_plus_one(self):
        result = run(split(1, 2, 5, 2), t=2)
        assert result.agreement_holds()
        assert result.max_correct_step <= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_with_mid_round_crashes(self, seed):
        crashes = {4: RoundCrash(1, seed=seed), 3: RoundCrash(2, seed=seed)}
        result = run(split(1, 2, 5, 2), t=2, crashes=crashes, seed=seed)
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
            crashes = {pid: RoundCrash(1, delivered_to=frozenset()) for pid in range(f)}
            result = run(inputs, t=t, crashes=crashes, seed=seed)
            rounds = {d.step for d in result.correct_decisions.values()}
            assert result.agreement_holds()
            if expect_round_one:
                assert rounds == {1}, (f, rounds)

    def test_minimal_system_t_plus_one(self):
        """The row's headline: works with n = t + 1 processes."""
        result = run(unanimous(1, 3), t=2)
        assert result.decided_value == 1
        assert {d.step for d in result.correct_decisions.values()} == {1}

    @pytest.mark.parametrize("seed", range(4))
    def test_fast_decider_crashing_does_not_poison(self, seed):
        """A round-1 decider that crashes immediately afterwards must not
        leave the survivors undecided or disagreeing."""
        t = 2
        inputs = with_frequency_gap(1, 2, 5, 3)  # gap 3 > t: round-1-able
        crashes = {
            0: RoundCrash(2, delivered_to=frozenset({1})),
            4: RoundCrash(1, delivered_to=frozenset()),
        }
        result = run(inputs, t=t, crashes=crashes, seed=seed)
        assert result.agreement_holds()
        assert result.all_correct_decided()

    def test_validity_value_was_proposed(self):
        for seed in range(4):
            result = run([1, 2, 1, 2, 3], t=2, seed=seed)
            assert result.decided_value in {1, 2, 3}
