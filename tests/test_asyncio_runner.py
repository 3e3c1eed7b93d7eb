"""Claims first made on the retired in-memory ``asyncio`` runtime, kept under
their names.

Each now runs where it is strongest.  On ``net`` — the same protocol
objects in real processes over real sockets — a test asserts only what
no schedule can change: agreement, validity, that every correct process
decided or the timeout surfaced, and the run's own bookkeeping.  A claim
that needs one particular schedule runs on ``sim``, where the schedule is
fixed: ``TestEquivocatorImpact`` delays two correct senders so that every
correct process's first ``n − t`` proposals include both equivocators.
``test_real_uc_stack`` runs there too, because the real underlying
consensus does not cross a socket.
"""

import pytest

from repro.errors import SimulationError
from repro.harness import Deployment, Equivocate, Scenario, Silent, dex_freq, twostep
from repro.runtime.effects import Broadcast, Decide
from repro.runtime.protocol import Protocol
from repro.sim.latency import ConstantLatency
from repro.sim.scheduler import DelaySenders
from repro.types import DecisionKind, SystemConfig
from repro.workloads.inputs import split, unanimous

from .test_net_engine import assert_no_leaks


class Mute(Protocol):
    def on_message(self, sender, payload):
        return []


class DecideOnStart(Mute):
    def on_start(self):
        return [Decide(1, DecisionKind.ONE_STEP)]


class Chatter(Mute):
    """Floods forever, never decides — deliveries are always in flight."""

    def on_start(self):
        return [Broadcast("ping")]

    def on_message(self, sender, payload):
        return [Broadcast("ping")]


def _on_net(protocols, timeout):
    config = SystemConfig(len(protocols), 0)
    return Deployment(config, protocols).run("net", timeout=timeout)


@pytest.mark.net
class TestScenarioRunAsync:
    def test_unanimous_one_step(self):
        # the one-step condition holds in every n - t subset of a unanimous
        # vector, so no schedule can take the fast path away
        result = Scenario(dex_freq(), unanimous(1, 7), seed=1, engine="net").run(timeout=15)
        assert not result.timed_out
        assert result.decided_value == 1
        assert {d.kind for d in result.correct_decisions.values()} == {
            DecisionKind.ONE_STEP
        }

    def test_contended_falls_back_and_agrees(self):
        result = Scenario(dex_freq(), split(1, 2, 7, 3), seed=2, engine="net").run(timeout=15)
        assert not result.timed_out
        assert result.all_correct_decided() and result.agreement_holds()
        assert result.decided_value in (1, 2)

    def test_with_silent_fault(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Silent()}, seed=3, engine="net"
        ).run(timeout=15)
        assert not result.timed_out
        assert result.decided_value == 1

    def test_with_equivocator(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Equivocate(1, 2)}, seed=4, engine="net"
        ).run(timeout=15)
        assert not result.timed_out
        assert result.all_correct_decided()
        assert result.decided_value == 1  # validity: every correct process proposed 1

    def test_twostep_baseline(self):
        result = Scenario(twostep(), [1, 2, 3, 4], seed=5, engine="net").run(timeout=15)
        assert not result.timed_out
        assert result.all_correct_decided() and result.agreement_holds()
        assert result.decided_value in (1, 2, 3, 4)

    def test_real_uc_stack(self):
        # The RBC + ABA + ACS records are no wire records, so uc="real"
        # does not cross a socket: the stack runs on the simulator.
        result = Scenario(dex_freq(), split(1, 2, 7, 3), uc="real", seed=6).run()
        assert result.all_correct_decided() and result.agreement_holds()
        assert result.decided_value in (1, 2)


@pytest.mark.net
class TestRunnerMechanics:
    def test_wrong_cover_rejected(self):
        config = SystemConfig(3, 0)
        with pytest.raises(SimulationError, match="cover exactly"):
            Deployment(config, {0: Mute(0, config)}).run("net", timeout=5)

    def test_timeout_reported(self):
        result = _on_net({pid: Mute(pid, SystemConfig(2, 0)) for pid in range(2)}, 0.2)
        assert result.timed_out
        assert result.decisions == {}
        assert_no_leaks()

    def test_message_stats_collected(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=7, engine="net").run(timeout=15)
        assert result.stats.messages_sent > 0
        assert result.stats.messages_delivered > 0


@pytest.mark.net
class TestTimeoutRegression:
    """A timed-out run must clean up after itself and surface what it has."""

    def test_timeout_leaves_no_pending_delivery_tasks(self):
        config = SystemConfig(3, 0)
        result = _on_net({pid: Chatter(pid, config) for pid in range(3)}, 0.5)
        assert result.timed_out
        # every node process was reaped and its socket directory removed,
        # although messages were still in flight when the deadline hit
        assert_no_leaks()

    def test_timeout_surfaces_partial_decisions(self):
        config = SystemConfig(3, 0)
        result = _on_net(
            {0: DecideOnStart(0, config), 1: Mute(1, config), 2: Mute(2, config)}, 0.5
        )
        assert result.timed_out
        assert set(result.decisions) == {0}
        assert result.undecided_correct == frozenset({1, 2})
        assert not result.all_correct_decided()
        assert result.agreement_holds()  # vacuously — nobody disagreed

    def test_clean_run_reports_no_undecided(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=8, engine="net").run(timeout=15)
        assert result.undecided_correct == frozenset()
        assert result.all_correct_decided()


class TestEquivocatorImpact:
    """The fault plane visibly changes an execution, on a fixed schedule."""

    def test_equivocator_forces_second_step(self):
        # n=13, t=2: one-step needs gap > 4t = 8.  Clean run: {1: 12, 2: 1},
        # gap 11 — even the stingiest n-t view has gap 9, so everyone
        # one-steps.
        inputs = [1] * 10 + [2, 1, 1]
        schedule = dict(latency=ConstantLatency(1.0), scheduler=DelaySenders({0, 1}, 10.0))
        clean = Scenario(dex_freq(), inputs, seed=11, **schedule).run()
        assert clean.max_correct_step == 1
        # Two byzantine processes argue for 2 on both faces.  With p0 and p1
        # delayed, every correct process's first n-t = 11 proposals are
        # p2..p12: {1: 8, 2: 3}, and once p0 and p1 arrive {1: 10, 2: 3},
        # gap 7 — the one-step predicate never holds and the two-step path
        # (gap 7 > 2t) finishes the job.
        faulty = Scenario(
            dex_freq(),
            inputs,
            faults={11: Equivocate(2, 2), 12: Equivocate(2, 2)},
            seed=11,
            **schedule,
        ).run()
        assert faulty.agreement_holds()
        assert faulty.decided_value == 1
        assert faulty.max_correct_step >= 2
        assert faulty.max_correct_step > clean.max_correct_step
