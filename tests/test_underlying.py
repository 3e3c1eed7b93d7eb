"""Tests for the underlying-consensus stack: oracle, coin, ABA, ACS, MVC."""

import pytest

from repro.errors import ResilienceError
from repro.runtime.effects import Broadcast, Decide, Deliver, ServiceCall
from repro.runtime.protocol import Protocol
from repro.sim.latency import ConstantLatency
from repro.sim.runner import Simulation
from repro.types import DecisionKind, SystemConfig
from repro.underlying.aba import (
    DELIVER_TAG as ABA_TAG,
)
from repro.underlying.aba import (
    AbaDecided,
    AbaEst,
    BinaryAgreement,
)
from repro.underlying.acs import DELIVER_TAG as ACS_TAG
from repro.underlying.acs import CommonSubset
from repro.underlying.base import UC_DECIDE_TAG
from repro.underlying.coin import CommonCoin
from repro.underlying.multivalued import MultivaluedConsensus, extract_decision
from repro.underlying.oracle import (
    OracleConsensus,
    OracleProposal,
    OracleService,
)


class TestCommonCoin:
    def test_deterministic(self):
        coin = CommonCoin(seed=5)
        assert coin.bit("x", 3) == CommonCoin(seed=5).bit("x", 3)

    def test_instance_and_round_sensitivity(self):
        coin = CommonCoin(seed=5)
        bits = {coin.bit("x", r) for r in range(32)}
        assert bits == {0, 1}  # both values appear over rounds

    def test_value_in_range(self):
        coin = CommonCoin(seed=1)
        for r in range(20):
            assert 0 <= coin.value("e", r, 7) < 7

    def test_value_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            CommonCoin().value("e", 0, 0)


# -- oracle -------------------------------------------------------------------------


class TestOracleService:
    def make(self, n=4, t=1, step_cost=2):
        return OracleService(SystemConfig(n, t), step_cost=step_cost)

    def test_waits_for_quorum(self):
        service = self.make()
        assert service.on_call(0, OracleProposal(0, "a"), 1, 0.0) == []
        assert service.on_call(1, OracleProposal(0, "a"), 1, 0.0) == []
        replies = service.on_call(2, OracleProposal(0, "a"), 1, 0.0)
        # announcement to every proposer so far (late proposers get theirs
        # when their own proposal arrives)
        assert {r.dst for r in replies} == {0, 1, 2}

    def test_unanimity_of_majority(self):
        service = self.make()
        service.on_call(0, OracleProposal(0, "v"), 1, 0.0)
        service.on_call(1, OracleProposal(0, "v"), 1, 0.0)
        replies = service.on_call(2, OracleProposal(0, "w"), 1, 0.0)
        assert all(r.payload.value == "v" for r in replies)

    def test_step_cost_applied(self):
        service = self.make(step_cost=2)
        service.on_call(0, OracleProposal(0, "v"), 3, 0.0)
        service.on_call(1, OracleProposal(0, "v"), 2, 0.0)
        replies = service.on_call(2, OracleProposal(0, "v"), 1, 0.0)
        assert all(r.depth == 5 for r in replies)  # max(3,2,1) + 2

    def test_duplicate_caller_ignored(self):
        service = self.make()
        service.on_call(0, OracleProposal(0, "a"), 1, 0.0)
        assert service.on_call(0, OracleProposal(0, "b"), 1, 0.0) == []

    def test_late_proposer_gets_decision(self):
        service = self.make()
        for pid in range(3):
            service.on_call(pid, OracleProposal(0, "v"), 1, 0.0)
        replies = service.on_call(3, OracleProposal(0, "w"), 9, 0.0)
        assert len(replies) == 1
        assert replies[0].dst == 3
        assert replies[0].payload.value == "v"

    def test_proposal_book_freed_at_decision(self):
        """The late-proposer branch reads the decision only, so the decided
        instance's ``(value, depth, path)`` tuples are not kept."""
        service = self.make()
        for pid in range(2):
            service.on_call(pid, OracleProposal(0, "v"), 1, 0.0)
        service.on_call(0, OracleProposal(1, "other"), 1, 0.0)
        assert set(service._proposals) == {0, 1}
        service.on_call(2, OracleProposal(0, "v"), 1, 0.0)
        assert set(service._proposals) == {1}  # instance 0 decided, 1 open
        (reply,) = service.on_call(3, OracleProposal(0, "w"), 9, 0.0)
        assert (reply.dst, reply.payload.value) == (3, "v")
        assert set(service._proposals) == {1}  # a late proposer opens no book

    def test_instances_independent(self):
        service = self.make()
        for pid in range(3):
            service.on_call(pid, OracleProposal("a", 1), 1, 0.0)
        assert service.on_call(0, OracleProposal("b", 2), 1, 0.0) == []

    def test_garbage_payload_ignored(self):
        service = self.make()
        assert service.on_call(0, "garbage", 1, 0.0) == []

    def test_unhashable_proposal_ignored(self):
        # A decoded wire list is unhashable: as an instance it used to raise
        # at once, as a value once a quorum was chosen from.
        service = self.make()
        assert service.on_call(0, OracleProposal([0], "v"), 1, 0.0) == []
        assert service.on_call(1, OracleProposal(0, ["v"]), 1, 0.0) == []
        assert service.on_call(2, OracleProposal(0, "v"), 1, 0.0) == []
        assert service.on_call(3, OracleProposal(0, "v"), 1, 0.0) == []
        # the garbage booked nothing: pid 1's real proposal completes the quorum
        assert {r.dst for r in service.on_call(1, OracleProposal(0, "v"), 1, 0.0)} == {1, 2, 3}

    def test_reset(self):
        service = self.make()
        for pid in range(3):
            service.on_call(pid, OracleProposal(0, "v"), 1, 0.0)
        service.reset()
        assert service.on_call(0, OracleProposal(0, "v"), 1, 0.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleService(SystemConfig(4, 1), step_cost=-1)


class TestOracleConsensusAdapter:
    def test_propose_once(self):
        adapter = OracleConsensus(0, SystemConfig(4, 1))
        first = adapter.propose("v")
        assert len(first) == 1
        assert isinstance(first[0], ServiceCall)
        assert adapter.propose("w") == []
        assert adapter.has_proposed

    def test_decide_upcall(self):
        from repro.underlying.oracle import OracleDecision

        adapter = OracleConsensus(0, SystemConfig(4, 1), instance=7)
        effects = adapter.on_message(-1, OracleDecision(7, "v"))
        assert effects == [Deliver(UC_DECIDE_TAG, 0, "v")]
        # duplicate announcements ignored
        assert adapter.on_message(-1, OracleDecision(7, "v")) == []

    def test_wrong_instance_ignored(self):
        from repro.underlying.oracle import OracleDecision

        adapter = OracleConsensus(0, SystemConfig(4, 1), instance=7)
        assert adapter.on_message(-1, OracleDecision(8, "v")) == []


# -- binary agreement -----------------------------------------------------------------


def aba_system(config, inputs, byzantine=None, seed=0, coin_seed=0):
    coin = CommonCoin(coin_seed)
    byzantine = byzantine or {}
    protocols = {}

    class Node(Protocol):
        def __init__(self, pid, config, value):
            super().__init__(pid, config)
            self.aba = BinaryAgreement(pid, config, coin)
            self.value = value

        def on_start(self):
            return self._forward(self.aba.propose(self.value))

        def _forward(self, effects):
            out = []
            for e in effects:
                if isinstance(e, Deliver) and e.tag == ABA_TAG:
                    out.append(Decide(e.value, DecisionKind.UNDERLYING))
                else:
                    out.append(e)
            return out

        def on_message(self, sender, payload):
            return self._forward(self.aba.on_message(sender, payload))

    for pid in config.processes:
        protocols[pid] = byzantine.get(pid) or Node(pid, config, inputs[pid])
    return Simulation(config, protocols, faulty=frozenset(byzantine), seed=seed)


class TestBinaryAgreement:
    def test_resilience(self):
        with pytest.raises(ResilienceError):
            BinaryAgreement(0, SystemConfig(3, 1), CommonCoin())

    def test_input_validation(self):
        aba = BinaryAgreement(0, SystemConfig(4, 1), CommonCoin())
        with pytest.raises(ValueError):
            aba.propose(2)

    def test_propose_idempotent(self):
        aba = BinaryAgreement(0, SystemConfig(4, 1), CommonCoin())
        assert aba.propose(1)
        assert aba.propose(0) == []

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_unanimous_input_decides_it(self, value, seed):
        config = SystemConfig(4, 1)
        result = aba_system(config, [value] * 4, seed=seed).run_until_decided()
        assert result.agreement_holds()
        assert result.decided_value == value

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_inputs_agree(self, seed):
        config = SystemConfig(4, 1)
        result = aba_system(config, [0, 1, 0, 1], seed=seed, coin_seed=seed).run_until_decided()
        assert result.agreement_holds()
        assert result.decided_value in (0, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_with_silent_fault(self, seed):
        config = SystemConfig(4, 1)

        class Quiet(Protocol):
            def on_message(self, sender, payload):
                return []

        result = aba_system(
            config, [1, 1, 0, 0], byzantine={3: Quiet(3, config)}, seed=seed
        ).run_until_decided()
        assert result.agreement_holds()

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_with_est_spammer(self, seed):
        config = SystemConfig(7, 2)

        class Spammer(Protocol):
            def on_start(self):
                return [Broadcast(AbaEst(r, r % 2)) for r in range(4)] + [
                    Broadcast(AbaDecided(0))
                ]

            def on_message(self, sender, payload):
                return []

        byz = {5: Spammer(5, config), 6: Spammer(6, config)}
        result = aba_system(
            config, [1, 1, 1, 1, 1, 0, 0], byzantine=byz, seed=seed
        ).run_until_decided()
        assert result.agreement_holds()

    def test_round_horizon_guards_memory(self):
        aba = BinaryAgreement(0, SystemConfig(4, 1), CommonCoin())
        aba.propose(1)
        assert aba.on_message(1, AbaEst(10_000, 1)) == []
        assert (10_000, 1) not in aba._est_from

    def test_decided_adoption_via_t_plus_one(self):
        config = SystemConfig(4, 1)
        aba = BinaryAgreement(0, config, CommonCoin())
        aba.propose(1)
        assert aba.decided is None
        aba.on_message(1, AbaDecided(0))
        effects = aba.on_message(2, AbaDecided(0))  # t+1 = 2 announcements
        assert aba.decided == 0
        assert any(isinstance(e, Deliver) for e in effects)


# -- ACS + multivalued -----------------------------------------------------------------


def mvc_system(config, inputs, byzantine=None, seed=0, coin_seed=0):
    coin = CommonCoin(coin_seed)
    byzantine = byzantine or {}

    class Node(Protocol):
        def __init__(self, pid, config, value):
            super().__init__(pid, config)
            self.mvc = MultivaluedConsensus(pid, config, coin)
            self.value = value

        def _forward(self, effects):
            out = []
            for e in effects:
                if isinstance(e, Deliver) and e.tag == UC_DECIDE_TAG:
                    out.append(Decide(e.value, DecisionKind.UNDERLYING))
                else:
                    out.append(e)
            return out

        def on_start(self):
            return self._forward(self.mvc.propose(self.value))

        def on_message(self, sender, payload):
            return self._forward(self.mvc.on_message(sender, payload))

    protocols = {
        pid: byzantine.get(pid) or Node(pid, config, inputs[pid])
        for pid in config.processes
    }
    return Simulation(config, protocols, faulty=frozenset(byzantine), seed=seed)


class TestExtractDecision:
    def test_plurality(self):
        assert extract_decision({0: "a", 1: "a", 2: "b"}) == "a"

    def test_tie_breaks_to_largest(self):
        assert extract_decision({0: "a", 1: "b"}) == "b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_decision({})


class TestMultivaluedConsensus:
    @pytest.mark.parametrize("seed", range(3))
    def test_unanimity(self, seed):
        config = SystemConfig(4, 1)
        result = mvc_system(config, ["v"] * 4, seed=seed).run_until_decided()
        assert result.decided_value == "v"

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_mixed_inputs(self, seed):
        config = SystemConfig(4, 1)
        result = mvc_system(
            config, ["a", "b", "a", "b"], seed=seed, coin_seed=seed
        ).run_until_decided()
        assert result.agreement_holds()
        assert result.decided_value in ("a", "b")

    @pytest.mark.parametrize("seed", range(3))
    def test_termination_with_silent_fault(self, seed):
        config = SystemConfig(4, 1)

        class Quiet(Protocol):
            def on_message(self, sender, payload):
                return []

        result = mvc_system(
            config, ["v"] * 4, byzantine={3: Quiet(3, config)}, seed=seed
        ).run_until_decided()
        assert result.decided_value == "v"

    def test_unanimity_with_equivocating_rbc(self):
        config = SystemConfig(4, 1)
        from repro.broadcast.bracha import RbcInit
        from repro.runtime.composite import Envelope
        from repro.runtime.effects import Send

        class TwoFaced(Protocol):
            def on_start(self):
                return [
                    Send(
                        dst,
                        Envelope("acs", Envelope("rbc", RbcInit("X" if dst < 2 else "Y"))),
                    )
                    for dst in self.config.processes
                ]

            def on_message(self, sender, payload):
                return []

        result = mvc_system(
            config, ["v", "v", "v", "v"], byzantine={3: TwoFaced(3, config)}, seed=7
        ).run_until_decided()
        # all correct propose v and n - 2t > t: decision must be v
        assert result.decided_value == "v"


class TestCommonSubset:
    @pytest.mark.parametrize("seed", range(3))
    def test_subsets_identical_and_large(self, seed):
        config = SystemConfig(4, 1)
        coin = CommonCoin(seed)

        class Node(Protocol):
            def __init__(self, pid, config):
                super().__init__(pid, config)
                self.acs = CommonSubset(pid, config, coin)

            def _forward(self, effects):
                out = []
                for e in effects:
                    if isinstance(e, Deliver) and e.tag == ACS_TAG:
                        out.append(Decide(tuple(sorted(e.value.items())), DecisionKind.UNDERLYING))
                    else:
                        out.append(e)
                return out

            def on_start(self):
                return self._forward(self.acs.propose(("p", self.process_id)))

            def on_message(self, sender, payload):
                return self._forward(self.acs.on_message(sender, payload))

        protocols = {pid: Node(pid, config) for pid in config.processes}
        result = Simulation(config, protocols, seed=seed).run_until_decided()
        assert result.agreement_holds()
        subset = dict(result.decided_value)
        assert len(subset) >= config.quorum
        for j, value in subset.items():
            assert value == ("p", j)
