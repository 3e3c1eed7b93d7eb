"""Tests for algorithm DEX (Figure 1): decision paths, lemmas, robustness."""

import pytest

from repro.baselines.bosco import BoscoConsensus, BoscoVote
from repro.baselines.brasileiro import BrasileiroConsensus, BrasileiroValue
from repro.baselines.crash_onestep import CrashValue, IzumiCrashConsensus
from repro.broadcast.idb import IdbInit
from repro.conditions.frequency import FrequencyPair
from repro.conditions.privileged import PrivilegedPair
from repro.core.dex import DexConsensus, DexProposal
from repro.engine.events import EventLog, LogEvent
from repro.errors import ConfigurationError, ResilienceError
from repro.harness import (
    Crash,
    Custom,
    Equivocate,
    Garbage,
    Scenario,
    Silent,
    dex_freq,
    dex_prv,
)
from repro.runtime.effects import Broadcast, Envelope
from repro.runtime.protocol import Protocol
from repro.sim.latency import ConstantLatency
from repro.sim.scheduler import DelaySenders
from repro.types import BOTTOM, DecisionKind, SystemConfig
from repro.workloads.inputs import split, unanimous, with_frequency_gap

from .conftest import kinds_of, steps_of


class TestConstruction:
    def test_requires_n_gt_5t(self):
        config = SystemConfig(5, 1)
        with pytest.raises(ResilienceError):
            DexConsensus(0, config, PrivilegedPair(6, 1, 1), 1)

    def test_pair_must_match_config(self):
        config = SystemConfig(13, 2)
        with pytest.raises(ConfigurationError):
            DexConsensus(0, config, FrequencyPair(7, 1), 1)

    def test_views_start_at_bottom_except_self(self):
        config = SystemConfig(7, 1)
        node = DexConsensus(3, config, FrequencyPair(7, 1), "v")
        node.on_start()
        assert node.view1[3] == "v"
        assert node.view2[3] == "v"
        assert node.view1[0] is BOTTOM

    def test_first_value_per_sender_binds(self):
        config = SystemConfig(7, 1)
        node = DexConsensus(0, config, FrequencyPair(7, 1), 1)
        node.on_start()
        node.on_message(2, DexProposal("a"))
        node.on_message(2, DexProposal("b"))
        assert node.view1[2] == "a"

    def test_unhashable_proposal_dropped(self):
        config = SystemConfig(7, 1)
        node = DexConsensus(0, config, FrequencyPair(7, 1), 1)
        node.on_start()
        node.on_message(2, DexProposal(["unhashable"]))
        assert node.view1[2] is BOTTOM


class _BottomSender(Protocol):
    """Byzantine: P-Sends ``⊥`` and Id-Sends ``⊥``, then stays silent."""

    def on_start(self):
        return [Broadcast(DexProposal(BOTTOM)), Broadcast(Envelope("idb", IdbInit(BOTTOM)))]

    def on_message(self, sender, payload):
        return []


class TestRefusedValues:
    """``⊥`` marks an unbound view slot, so no message may bind one to it."""

    def test_bottom_id_receive_is_blamed_on_its_origin(self):
        # Every correct IDB delivers (6, ⊥); DEX refuses it and names the
        # origin — not whichever correct echoer completed the delivery.  A
        # contended input, so the run lasts until the IDB deliveries land.
        log = EventLog()
        result = Scenario(
            dex_freq(),
            [1, 1, 1, 1, 2, 2, 1],
            faults={6: Custom(lambda pid, config, make, value: _BottomSender(pid, config))},
            seed=2,
            event_sink=log,
        ).run()
        events = log.of_type(LogEvent)
        assert not [e for e in events if e.event == "malformed-message-dropped"]
        refused = [e for e in events if e.event == "dex-value-refused"]
        # per correct process: the P-Send and the Id-Receive
        assert sorted(e.data["pid"] for e in refused) == sorted(2 * list(range(6)))
        assert {e.data["sender"] for e in refused} == {6}
        assert result.all_correct_decided() and result.agreement_holds()

    @pytest.mark.parametrize(
        "make, message, event",
        [
            (
                lambda c: DexConsensus(0, c, FrequencyPair(7, 1), 1),
                DexProposal(BOTTOM),
                "dex-value-refused",
            ),
            (lambda c: BoscoConsensus(0, c, 1), BoscoVote(BOTTOM), "bosco-value-refused"),
            (
                lambda c: BrasileiroConsensus(0, c, 1),
                BrasileiroValue(BOTTOM),
                "brasileiro-value-refused",
            ),
            (lambda c: IzumiCrashConsensus(0, c, 1), CrashValue(BOTTOM), "izumi-value-refused"),
        ],
        ids=["dex", "bosco", "brasileiro", "izumi"],
    )
    def test_bottom_value_refused(self, make, message, event):
        node = make(SystemConfig(7, 1))
        node.on_start()
        (log,) = node.on_message(2, message)
        assert (log.event, log.data["sender"]) == (event, 2)


class TestDecisionPaths:
    """The three decision lines of Figure 1, each exercised on purpose."""

    def test_line8_one_step(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=0).run()
        assert kinds_of(result) == {DecisionKind.ONE_STEP}
        assert steps_of(result) == {1}
        assert result.decided_value == 1

    def test_line17_two_step(self):
        # gap 5 = 4t + 1: inside C²_0 (> 2t) but outside C¹ after one miss;
        # delay one 1-proposer so first quorum gap is 4, P1 fails, P2 holds.
        inputs = with_frequency_gap(1, 2, 7, 5)
        result = Scenario(
            dex_freq(),
            inputs,
            seed=1,
            latency=ConstantLatency(1.0),
            scheduler=DelaySenders([0], extra=50.0),
        ).run()
        assert result.decided_value == 1
        assert DecisionKind.TWO_STEP in kinds_of(result)
        two_steppers = [
            d for d in result.correct_decisions.values()
            if d.kind is DecisionKind.TWO_STEP
        ]
        assert all(d.step == 2 for d in two_steppers)

    def test_line21_underlying(self):
        inputs = split(1, 2, 7, 3)  # gap 1: outside every condition
        result = Scenario(dex_freq(), inputs, seed=2).run()
        assert kinds_of(result) == {DecisionKind.UNDERLYING}
        assert result.decided_value in (1, 2)

    def test_underlying_costs_four_steps(self):
        """The §1.2 trade-off: DEX worst case in well-behaved runs is 4."""
        inputs = split(1, 2, 7, 3)
        result = Scenario(
            dex_freq(), inputs, seed=3, latency=ConstantLatency(1.0)
        ).run()
        assert steps_of(result) == {4}  # propose at depth 2 + UC cost 2

    def test_one_step_when_gap_sufficient(self):
        inputs = with_frequency_gap(1, 2, 7, 5)  # gap 5 > 4t = 4
        result = Scenario(dex_freq(), inputs, seed=4).run()
        assert result.decided_value == 1
        # with fair scheduling all correct processes hear everyone
        assert kinds_of(result) <= {DecisionKind.ONE_STEP, DecisionKind.TWO_STEP}


class TestLemma4OneStep:
    """Lemma 4: I ∈ C¹_k and f ≤ k ⇒ every correct process decides in one
    step — under *any* schedule (we try several adversarial ones)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_unanimous_with_max_silent_faults(self, seed):
        n, t = 13, 2
        faults = {11: Silent(), 12: Silent()}
        result = Scenario(dex_freq(), unanimous(1, n), t=t, faults=faults, seed=seed).run()
        assert kinds_of(result) == {DecisionKind.ONE_STEP}
        assert steps_of(result) == {1}

    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_input_level_one(self, seed):
        # n=13, t=2: gap 4t+2*1+1 = 11 -> C¹_1; with f=1 one-step guaranteed
        n, t = 13, 2
        inputs = with_frequency_gap(1, 2, n, 11)
        result = Scenario(
            dex_freq(), inputs, t=t, faults={12: Silent()}, seed=seed
        ).run()
        assert kinds_of(result) == {DecisionKind.ONE_STEP}

    @pytest.mark.parametrize("seed", range(5))
    def test_equivocators_within_level(self, seed):
        n, t = 13, 2
        result = Scenario(
            dex_freq(),
            unanimous(1, n),
            t=t,
            faults={11: Equivocate(1, 2), 12: Equivocate(2, 3)},
            seed=seed,
        ).run()
        assert result.decided_value == 1
        assert kinds_of(result) == {DecisionKind.ONE_STEP}


class TestLemma5TwoStep:
    """Lemma 5: I ∈ C²_k, f ≤ k ⇒ decision within two steps."""

    @pytest.mark.parametrize("seed", range(5))
    def test_two_step_guarantee(self, seed):
        n, t = 13, 2
        inputs = with_frequency_gap(1, 2, n, 9)  # 9 > 2t + 2k = 8 for k = 2
        result = Scenario(
            dex_freq(),
            inputs,
            t=t,
            faults={11: Silent(), 12: Silent()},
            seed=seed,
        ).run()
        assert result.decided_value == 1
        assert all(d.step <= 2 for d in result.correct_decisions.values())


class TestAgreementUnderAdversaries:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivocator_on_contended_input(self, seed):
        inputs = [1, 1, 1, 1, 2, 2, 2]
        result = Scenario(
            dex_freq(), inputs, faults={6: Equivocate(2, 1)}, seed=seed
        ).run()
        assert result.agreement_holds()
        assert result.all_correct_decided()
        assert result.decided_value in (1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_crash_mid_broadcast(self, seed):
        inputs = [1, 1, 1, 1, 2, 2, 2]
        result = Scenario(
            dex_freq(), inputs, faults={6: Crash(budget=3)}, seed=seed
        ).run()
        assert result.agreement_holds()

    @pytest.mark.parametrize("seed", range(8))
    def test_garbage_sprayer(self, seed):
        inputs = [1, 1, 1, 1, 1, 2, 2]
        result = Scenario(
            dex_freq(), inputs, faults={6: Garbage(seed=seed)}, seed=seed
        ).run()
        assert result.agreement_holds()
        assert result.all_correct_decided()

    @pytest.mark.parametrize("seed", range(4))
    def test_unanimity_with_byzantine(self, seed):
        result = Scenario(
            dex_freq(), unanimous(5, 7), faults={6: Equivocate(7, 8)}, seed=seed
        ).run()
        # all correct proposed 5 -> decision must be 5
        assert result.decided_value == 5


class TestPrivilegedInstantiation:
    def test_one_step_on_privileged_majority(self):
        spec = dex_prv(privileged="C")
        inputs = ["C"] * 9 + ["A"] * 2
        result = Scenario(spec, inputs, seed=0).run()
        assert result.decided_value == "C"
        assert kinds_of(result) == {DecisionKind.ONE_STEP}

    def test_privileged_value_wins_close_race(self):
        spec = dex_prv(privileged="C")
        # 5 C's of 11, t=2: #C = 5 > 2t = 4 -> two-step decides C
        inputs = ["C"] * 5 + ["A"] * 6
        result = Scenario(spec, inputs, seed=1).run()
        assert result.decided_value == "C"

    def test_falls_back_when_privileged_scarce(self):
        spec = dex_prv(privileged="C")
        inputs = ["C"] * 2 + ["A"] * 9
        result = Scenario(spec, inputs, seed=2).run()
        assert result.agreement_holds()
        assert result.decided_value == "A"

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_equivocator(self, seed):
        spec = dex_prv(privileged="C")
        inputs = ["C"] * 8 + ["A"] * 3
        result = Scenario(
            spec, inputs, faults={10: Equivocate("A", "C")}, seed=seed
        ).run()
        assert result.agreement_holds()


class TestRealUnderlyingStack:
    @pytest.mark.parametrize("seed", range(3))
    def test_contended_input_with_real_uc(self, seed):
        inputs = [1, 1, 1, 1, 2, 2, 2]
        result = Scenario(dex_freq(), inputs, uc="real", seed=seed).run()
        assert result.agreement_holds()
        assert result.all_correct_decided()

    def test_fast_path_unaffected_by_real_uc(self):
        result = Scenario(dex_freq(), unanimous(1, 7), uc="real", seed=1).run()
        assert kinds_of(result) == {DecisionKind.ONE_STEP}

    @pytest.mark.parametrize("seed", range(2))
    def test_real_uc_with_equivocator(self, seed):
        inputs = [1, 1, 1, 2, 2, 2, 1]
        result = Scenario(
            dex_freq(), inputs, uc="real", faults={6: Equivocate(1, 2)}, seed=seed
        ).run()
        assert result.agreement_holds()


class TestUcProposalDiscipline:
    def test_every_correct_process_proposes_even_after_deciding(self):
        """Line 12-15 fires regardless of a fast decision — others may need
        the underlying consensus (Case 4 of the agreement proof)."""
        sim = Scenario(dex_freq(), unanimous(1, 7), seed=0).build()
        result = sim.run_until_decided()
        assert result.decided_value == 1
        # drain remaining traffic: every correct node must have proposed
        sim.run_to_quiescence()
        for pid in range(7):
            node = sim._states[pid].protocol
            assert node.has_proposed_to_uc
