"""Tests for the asyncio runtime: same protocols, real event loop."""

import pytest

from repro.harness import Equivocate, Scenario, Silent, dex_freq, twostep
from repro.runtime.asyncio_runner import AsyncioRunner
from repro.types import DecisionKind, SystemConfig
from repro.workloads.inputs import split, unanimous


class TestScenarioRunAsync:
    def test_unanimous_one_step(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=1, engine="asyncio").run(timeout=15)
        assert not result.timed_out
        assert result.decided_value == 1
        assert result.max_correct_step == 1
        assert {d.kind for d in result.correct_decisions.values()} == {
            DecisionKind.ONE_STEP
        }

    def test_contended_falls_back_and_agrees(self):
        result = Scenario(dex_freq(), split(1, 2, 7, 3), seed=2, engine="asyncio").run(timeout=15)
        assert not result.timed_out
        assert result.agreement_holds()
        assert result.decided_value in (1, 2)

    def test_with_silent_fault(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Silent()}, seed=3, engine="asyncio"
        ).run(timeout=15)
        assert not result.timed_out
        assert result.decided_value == 1

    def test_with_equivocator(self):
        result = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Equivocate(1, 2)}, seed=4, engine="asyncio"
        ).run(timeout=15)
        assert not result.timed_out
        assert result.agreement_holds()

    def test_twostep_baseline(self):
        result = Scenario(twostep(), [1, 2, 3, 4], seed=5, engine="asyncio").run(timeout=15)
        assert not result.timed_out
        assert result.agreement_holds()

    def test_real_uc_stack(self):
        result = Scenario(
            dex_freq(), split(1, 2, 7, 3), uc="real", seed=6, engine="asyncio"
        ).run(timeout=20)
        assert not result.timed_out
        assert result.agreement_holds()


class TestRunnerMechanics:
    def test_wrong_cover_rejected(self):
        from repro.runtime.protocol import Protocol

        class Nop(Protocol):
            def on_message(self, sender, payload):
                return []

        config = SystemConfig(3, 0)
        with pytest.raises(Exception):
            AsyncioRunner(config, {0: Nop(0, config)})

    def test_timeout_reported(self):
        from repro.runtime.protocol import Protocol

        class Mute(Protocol):
            def on_message(self, sender, payload):
                return []

        config = SystemConfig(2, 0)
        runner = AsyncioRunner(
            config, {pid: Mute(pid, config) for pid in config.processes}
        )
        result = runner.run_sync(timeout=0.2)
        assert result.timed_out
        assert result.decisions == {}

    def test_message_stats_collected(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=7, engine="asyncio").run(timeout=15)
        assert result.stats.messages_sent > 0
        assert result.stats.messages_delivered > 0


class TestTimeoutRegression:
    """A timed-out run must clean up after itself and surface what it has."""

    def test_timeout_leaves_no_pending_delivery_tasks(self):
        from repro.runtime.effects import Broadcast
        from repro.runtime.protocol import Protocol

        class Chatter(Protocol):
            """Floods forever, never decides — deliveries are always in flight."""

            def on_start(self):
                return [Broadcast("ping")]

            def on_message(self, sender, payload):
                return [Broadcast("ping")]

        config = SystemConfig(3, 0)
        runner = AsyncioRunner(
            config,
            {pid: Chatter(pid, config) for pid in config.processes},
            mean_delay=0.01,
        )
        result = runner.run_sync(timeout=0.2)
        assert result.timed_out
        # every in-flight delivery task was cancelled and reaped; nothing
        # leaks into (or crashes) a later event loop.
        assert not runner._pending

    def test_timeout_surfaces_partial_decisions(self):
        from repro.runtime.effects import Decide
        from repro.runtime.protocol import Protocol

        class DecideOnStart(Protocol):
            def on_start(self):
                return [Decide(1, DecisionKind.ONE_STEP)]

            def on_message(self, sender, payload):
                return []

        class Mute(Protocol):
            def on_message(self, sender, payload):
                return []

        config = SystemConfig(3, 0)
        runner = AsyncioRunner(
            config,
            {
                0: DecideOnStart(0, config),
                1: Mute(1, config),
                2: Mute(2, config),
            },
        )
        result = runner.run_sync(timeout=0.2)
        assert result.timed_out
        assert set(result.decisions) == {0}
        assert result.undecided_correct == frozenset({1, 2})
        assert not result.all_correct_decided()
        assert result.agreement_holds()  # vacuously — nobody disagreed

    def test_clean_run_reports_no_undecided(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=8, engine="asyncio").run(timeout=15)
        assert result.undecided_correct == frozenset()
        assert result.all_correct_decided()


class TestEquivocatorImpact:
    """The fault plane visibly changes asyncio executions, not just sim ones."""

    def test_equivocator_forces_second_step(self):
        # n=13, t=2: one-step needs gap > 4t = 8.  Clean run: {1: 12, 2: 1},
        # gap 11 — even the stingiest n-t view has gap 9, so everyone
        # one-steps.
        inputs = [1] * 10 + [2, 1, 1]
        clean = Scenario(dex_freq(), inputs, seed=11, engine="asyncio").run(timeout=20)
        assert not clean.timed_out
        assert clean.max_correct_step == 1
        # Two byzantine processes argue for 2 on both faces: correct views
        # become {1: 10, 2: up-to-3}, gap at most 8 once a byzantine vote is
        # counted — the one-step predicate fails and the two-step path
        # (gap 7 > 2t) finishes the job.
        faulty = Scenario(
            dex_freq(),
            inputs,
            faults={11: Equivocate(2, 2), 12: Equivocate(2, 2)},
            seed=11,
            engine="asyncio",
        ).run(timeout=20)
        assert not faulty.timed_out
        assert faulty.agreement_holds()
        assert faulty.decided_value == 1
        assert faulty.max_correct_step >= 2
        assert faulty.max_correct_step > clean.max_correct_step
