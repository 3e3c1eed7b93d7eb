"""Cross-engine equivalence: one Scenario, four backends, same verdicts.

The tentpole claim of the engine layer is that ``sim``, ``sync``, ``mc``
and ``net`` are *backends* of one interpreter, not four
reimplementations.  These tests pin the observable consequences: the same
seeded scenario decides the same value (and satisfies the same
properties) no matter which engine runs it, and every engine returns the
same :class:`~repro.engine.run.RunResult` surface.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.engine.events import DecideEvent, EventLog, FaultEvent
from repro.engine.run import RunResult
from repro.errors import SimulationError
from repro.harness import (
    ENGINES,
    Crash,
    Equivocate,
    Scenario,
    Silent,
    dex_freq,
    dex_prv,
    run_once,
)
from repro.metrics.collectors import RunAggregate
from repro.workloads.inputs import split, unanimous

DETERMINISTIC_ENGINES = ("sim", "sync", "mc")


def _run_on(scenario: Scenario, engine: str):
    return dataclasses.replace(scenario, engine=engine).run()


class TestFaultFreeEquivalence:
    def test_unanimous_same_value_everywhere(self):
        scenario = Scenario(dex_freq(), unanimous(1, 7), seed=3)
        for engine in ENGINES:
            result = _run_on(scenario, engine)
            assert result.agreement_holds(), engine
            assert result.all_correct_decided(), engine
            assert result.decided_value == 1, engine
            assert result.max_correct_step == 1, engine

    def test_contended_inputs_agree_on_deterministic_engines(self):
        scenario = Scenario(dex_freq(), split(1, 2, 7, 3), seed=5)
        for engine in DETERMINISTIC_ENGINES:
            result = _run_on(scenario, engine)
            assert result.agreement_holds(), engine
            assert result.decided_value in (1, 2), engine

    def test_privileged_pair_runs_on_every_engine(self):
        scenario = Scenario(dex_prv(), unanimous(0, 4), seed=1)
        for engine in ENGINES:
            result = _run_on(scenario, engine)
            assert result.decided_value == 0, engine


class TestFaultyEquivalence:
    def test_crash_fault_same_value_everywhere(self):
        scenario = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Crash(3)}, seed=7
        )
        for engine in ENGINES:
            result = _run_on(scenario, engine)
            assert result.agreement_holds(), engine
            assert result.all_correct_decided(), engine
            assert result.decided_value == 1, engine

    def test_silent_fault_same_value_everywhere(self):
        scenario = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Silent()}, seed=7
        )
        for engine in ENGINES:
            result = _run_on(scenario, engine)
            assert result.decided_value == 1, engine

    def test_equivocator_same_value_everywhere(self):
        scenario = Scenario(
            dex_freq(), unanimous(1, 7), faults={6: Equivocate(1, 2)}, seed=9
        )
        for engine in ENGINES:
            result = _run_on(scenario, engine)
            assert result.agreement_holds(), engine
            assert result.all_correct_decided(), engine
            # validity: with every correct process proposing 1, the
            # equivocator cannot push the system to 2 on any backend.
            assert result.decided_value == 1, engine


class TestEventStreamParity:
    def test_decide_events_match_result_on_every_engine(self):
        for engine in ENGINES:
            log = EventLog()
            scenario = Scenario(
                dex_freq(), unanimous(1, 7), seed=2, engine=engine, event_sink=log
            )
            result = scenario.run()
            decided = {e.pid: e.value for e in log.of_type(DecideEvent)}
            assert decided == {
                pid: d.value for pid, d in result.decisions.items()
            }, engine

    def test_fault_plane_announced_on_event_stream(self):
        log = EventLog()
        Scenario(
            dex_freq(),
            unanimous(1, 7),
            faults={6: Equivocate(1, 2)},
            seed=2,
            event_sink=log,
        ).run()
        faults = log.of_type(FaultEvent)
        assert [(e.pid, e.fault) for e in faults] == [(6, "Equivocate")]


@pytest.mark.parametrize("engine", ENGINES)
class TestOneRunSurface:
    """What a run returns and records does not depend on the engine."""

    def test_one_result_type_on_the_engines_own_clock(self, engine):
        log = EventLog()
        result = Scenario(
            dex_freq(), unanimous(1, 7), seed=2, engine=engine, event_sink=log
        ).run()
        assert isinstance(result, RunResult)
        assert result.undecided_correct == frozenset()
        assert not result.timed_out
        # Decision.time is an offset on the run's own clock, not machine uptime
        for decision in result.correct_decisions.values():
            assert 0 <= decision.time <= result.end_time
        for event in log.of_type(DecideEvent):
            if engine == "mc":
                # the checker's tuple decision book carries no time (a stamp
                # would enter the fingerprint); run_mc reports 0.0
                assert result.decisions[event.pid].time == 0.0
            else:
                assert event.time == result.decisions[event.pid].time
        # the stats mirror the result instead of staying empty
        assert result.stats.decisions == result.decisions
        assert result.stats.end_time == result.end_time
        assert result.stats.max_decision_step == result.max_correct_step == 1
        assert result.stats.decided_values == {1}

    def test_more_than_t_declared_faulty_is_refused(self, engine):
        deployment = Scenario(dex_freq(), unanimous(1, 7), seed=2).deployment()
        deployment.faulty = frozenset({5, 6})  # t = 1
        with pytest.raises(SimulationError, match="exceed the bound t=1"):
            deployment.run(engine)


class TestResultSurface:
    @pytest.mark.net
    def test_timed_out_run_is_returned_with_its_stragglers(self):
        result = Scenario(dex_freq(), unanimous(1, 7), seed=2, engine="net").run(
            timeout=0.0
        )
        assert isinstance(result, RunResult)
        assert result.timed_out
        assert not result.all_correct_decided()
        assert result.undecided_correct == frozenset(range(7)) - set(result.decisions)
        assert result.undecided_correct  # somebody was still waiting

    def test_aggregate_folds_one_result_from_each_engine(self):
        aggregate = RunAggregate(label="mixed")
        scenario = Scenario(dex_freq(), unanimous(1, 7), seed=3)
        for engine in ENGINES:
            aggregate.add(_run_on(scenario, engine), expected_value=1)
        assert aggregate.runs == len(ENGINES)
        assert len(aggregate.times) == len(aggregate.messages) == len(ENGINES)
        assert aggregate.agreement_violations == 0
        assert aggregate.unanimity_violations == 0
        assert aggregate.undecided_runs == 0
        assert aggregate.worst_step == 1

#: What an entry module must not load (DESIGN §4): a socket node or hub
#: runs no simulator, checker, analysis, baseline, scenario harness or app,
#: the service no simulator or baseline, and the CLI loads a subcommand's
#: layers only when that subcommand runs.
_WORKER = ("repro.sim", "repro.mc", "repro.analysis", "repro.baselines",
           "repro.harness", "repro.apps", "asyncio", "scipy")
FORBIDDEN_IMPORTS = {
    "repro.net.node": _WORKER,
    "repro.net.cluster": _WORKER,
    "repro.mesh.hub": _WORKER,
    "repro.shard.service": ("repro.sim", "repro.mc", "repro.analysis",
                            "repro.baselines", "repro.apps", "scipy",
                            "repro.metrics", "statistics"),
    "repro.cli": ("repro.sim", "repro.mc", "repro.analysis", "scipy", "numpy"),
}


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


class TestLayering:
    @pytest.mark.parametrize("entry", sorted(FORBIDDEN_IMPORTS))
    def test_entry_module_loads_only_its_layers(self, entry):
        probe = (
            f"import sys, {entry}; "
            f"print(sorted(p for p in {FORBIDDEN_IMPORTS[entry]!r} "
            "if any(m == p or m.startswith(p + '.') for m in sys.modules)))"
        )
        out = _python(probe)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", f"{entry} loads {out.stdout.strip()}"

    @pytest.mark.net
    def test_a_net_run_loads_nothing_beyond_the_floor_star_probe(self):
        """``floor_star``'s ``setup_s`` times exactly this import line, so
        it is the whole import cost of a sharded net run: the run itself
        (service, hub 0, forked replicas) loads no further module."""
        probe = (
            "import sys, repro.shard.service, repro.net.cluster\n"
            "before = set(sys.modules)\n"
            "report = repro.shard.service.ShardedService(\n"
            "    n=7, shards=4, max_batch=4, contention=0.3, seed=1, engine='net'\n"
            ").run(count=64, timeout=60.0)\n"
            "assert report.commands == 64 and not report.divergence, report\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
        )
        out = _python(probe)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", out.stdout


class TestScenarioDataclass:
    """Regression guards for the ``dataclasses.replace``-based cloning."""

    EXPECTED_FIELDS = {
        "algorithm",
        "inputs",
        "t",
        "faults",
        "uc",
        "uc_step_cost",
        "latency",
        "scheduler",
        "seed",
        "max_events",
        "engine",
        "event_sink",
        "mesh",
        "config",
    }

    def test_field_set_is_known(self):
        # If this fails you added a Scenario field: extend EXPECTED_FIELDS
        # and check run_many's docstring still holds (replace-based cloning
        # carries new fields automatically — no other code change needed).
        names = {f.name for f in dataclasses.fields(Scenario)}
        assert names == self.EXPECTED_FIELDS

    def test_config_not_an_init_field(self):
        (config_field,) = [
            f for f in dataclasses.fields(Scenario) if f.name == "config"
        ]
        assert not config_field.init

    def test_replace_carries_every_field(self):
        scenario = Scenario(
            dex_freq(),
            unanimous(1, 7),
            faults={6: Silent()},
            uc_step_cost=3,
            seed=4,
            max_events=5000,
            engine="mc",
        )
        clone = dataclasses.replace(scenario, seed=9)
        assert clone.seed == 9
        for name in self.EXPECTED_FIELDS - {"seed", "config", "faults"}:
            assert getattr(clone, name) == getattr(scenario, name), name
        assert clone.faults == scenario.faults
        assert clone.config == scenario.config

    def test_run_many_respects_engine(self):
        aggregate = Scenario(
            dex_freq(), unanimous(1, 7), engine="sync"
        ).run_many(range(3))
        assert aggregate.runs == 3
        assert aggregate.agreement_violations == 0

    def test_run_many_aggregate_matches_individual_runs(self):
        scenario = Scenario(dex_freq(), split(1, 2, 7, 3))
        aggregate = scenario.run_many(range(4), expected_value=None)
        singles = [
            dataclasses.replace(scenario, seed=seed).run()
            for seed in range(4)
        ]
        assert aggregate.runs == 4
        assert aggregate.mean_max_step == pytest.approx(
            sum(r.max_correct_step for r in singles) / 4
        )

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown engine"):
            Scenario(dex_freq(), unanimous(1, 7), engine="quantum")

    def test_run_once_still_works(self):
        assert run_once(dex_freq(), unanimous(1, 7)).decided_value == 1
