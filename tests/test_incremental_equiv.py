"""Equivalence suite for the incremental hot-path engine.

Four pillars, mirroring the engine's layers:

* ``ViewStats`` matches the batch :class:`~repro.conditions.views.View`
  observations after *every* one of thousands of randomized single-entry
  updates (including mixed int/str alphabets, ``None`` as a value, and
  rejected re-binds);
* a pair's ``P1``/``P2``/``F`` answer the same on a ``View`` and on the
  ``ViewStats`` of the same entries, and DEX decides by whatever predicates
  its pair defines;
* the multiset-weighted exhaustive enumerator reproduces brute-force
  coverage exactly (same integers, hence bit-identical fractions);
* replaying the frozen seed fixture reproduces the pre-engine decisions
  bit-for-bit.
"""

import json
import pathlib
import random
from collections import Counter

import pytest

from repro.analysis.coverage import exact_space_coverage, pair_coverage
from repro.conditions.frequency import FrequencyPair
from repro.conditions.generators import all_vectors, multiset_vectors
from repro.conditions.incremental import ViewStats
from repro.conditions.privileged import PrivilegedPair
from repro.conditions.views import View
from repro.core.dex import DexConsensus
from repro.harness import (
    AlgorithmSpec,
    Collapse,
    Crash,
    Equivocate,
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
from repro.mc.scenario import UnderResilientPair
from repro.sim.latency import ConstantLatency
from repro.types import BOTTOM, DecisionKind
from repro.workloads.inputs import split, unanimous, with_frequency_gap

from .conftest import kinds_of

DATA = pathlib.Path(__file__).parent / "data" / "seed_decisions.json"


def _dex_with(pair_class, name):
    """DEX deployed with ``pair_class(n, t)``, as E10 deploys its ablation."""
    return AlgorithmSpec(
        name=name,
        make=lambda pid, config, value, uc_factory: DexConsensus(
            pid, config, pair_class(config.n, config.t), value, uc_factory
        ),
        required_ratio=6,
    )

ALPHABETS = [
    [0, 1],
    [1, 2, 3],
    list(range(7)),
    ["a", "b", "c"],
    [1, 2, "a", "b"],  # mixed: exercises the order_key tie-break fallback
    [None, 1, 2],  # None is a proposable value, distinct from unbound
]


class TestViewStatsEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_batch_view_after_every_update(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            n = rng.randint(1, 24)
            alphabet = rng.choice(ALPHABETS)
            stats = ViewStats(n)
            entries = [BOTTOM] * n
            # Twice as many attempts as slots: roughly half are re-binds,
            # which must be rejected without perturbing the statistics.
            for _ in range(2 * n):
                index = rng.randrange(n)
                value = rng.choice(alphabet)
                bound = stats.set_entry(index, value)
                assert bound == (entries[index] is BOTTOM)
                if bound:
                    entries[index] = value
                view = View(entries)
                assert stats.known == view.known
                assert stats.first() == view.first()
                assert stats.second() == view.second()
                assert stats.frequency_gap() == view.frequency_gap()
                assert stats.is_complete == view.is_complete
                assert stats.count(BOTTOM) == view.count(BOTTOM)
                for v in alphabet:
                    assert stats.count(v) == view.count(v)
                # Expected top-two counts straight from a histogram: asking
                # the View for count(second()) would inherit the ambiguity
                # of None-as-a-value, which is exactly what ViewStats avoids.
                ordered = sorted(
                    Counter(e for e in entries if e is not BOTTOM).values(),
                    reverse=True,
                )
                assert stats.first_count == (ordered[0] if ordered else 0)
                assert stats.second_count == (
                    ordered[1] if len(ordered) > 1 else 0
                )
                assert stats.as_view() == view
                assert stats.entries == tuple(entries)

    def test_rejects_bottom_and_rebinds(self):
        stats = ViewStats(3)
        with pytest.raises(ValueError):
            stats.set_entry(0, BOTTOM)
        assert stats.set_entry(0, 5)
        assert not stats.set_entry(0, 7)  # binding first write wins
        assert stats.count(5) == 1 and stats.count(7) == 0

    def test_from_entries_roundtrip(self):
        entries = [1, BOTTOM, 2, 1, BOTTOM]
        stats = ViewStats.from_entries(entries)
        assert stats.entries == tuple(entries)
        assert stats.as_view() == View(entries)
        assert stats.first() == 1 and stats.first_count == 2

    def test_empty_view(self):
        stats = ViewStats(4)
        assert stats.first() is None and stats.second() is None
        assert stats.frequency_gap() == 0
        assert stats.first_count == 0 and stats.second_count == 0


class TestIncrementalPredicates:
    @pytest.mark.parametrize("seed", range(4))
    def test_fast_paths_match_batch_predicates(self, seed):
        # One set of predicates per pair, read through the queries a View
        # and a ViewStats both answer: equal answers on equal entries.
        rng = random.Random(1000 + seed)
        pairs = [
            FrequencyPair(13, 2),
            PrivilegedPair(13, 2, privileged=1),
            UnderResilientPair(13, 2),
        ]
        for _ in range(300):
            pair = rng.choice(pairs)
            entries = [
                rng.choice([BOTTOM, 1, 2, 3]) for _ in range(pair.n)
            ]
            stats = ViewStats.from_entries(entries)
            view = View(entries)
            assert pair.p1(stats) == pair.p1(view)
            assert pair.p2(stats) == pair.p2(view)
            if view.known:
                assert pair.f(stats) == pair.f(view)

    def test_custom_pair_decides_by_its_own_predicates(self):
        # A pair written on the base class alone, deployed in DEX: its
        # predicates read the protocol's running ViewStats directly.
        from repro.conditions.base import (
            ConditionSequence,
            ConditionSequencePair,
            PredicateCondition,
        )

        class OnlyOnes(ConditionSequencePair):
            def p1(self, view):
                return view.count(1) == self.n

            def p2(self, view):
                return view.count(1) >= self.n - self.t

            def f(self, view):
                return 1

            def one_step_sequence(self):
                return ConditionSequence(
                    [PredicateCondition(self.p1)] * (self.t + 1)
                )

            def two_step_sequence(self):
                return ConditionSequence(
                    [PredicateCondition(self.p2)] * (self.t + 1)
                )

        assert not OnlyOnes.histogram_invariant  # base default: full enumeration
        only_ones = _dex_with(OnlyOnes, "dex-only-ones")
        unanimous_run = Scenario(only_ones, unanimous(1, 7), seed=3).run()
        assert kinds_of(unanimous_run) == {DecisionKind.ONE_STEP}
        # Six 1s: the frequency pair's gap 5 > 4t decides in one step, but
        # OnlyOnes' P1 wants all seven, so only its P2 (six >= n - t) fires.
        inputs = [1] * 6 + [2]
        assert kinds_of(Scenario(dex_freq(), inputs, seed=3).run()) == {
            DecisionKind.ONE_STEP
        }
        result = Scenario(only_ones, inputs, seed=3).run()
        assert kinds_of(result) == {DecisionKind.TWO_STEP}
        assert result.decided_value == 1


class TestSubclassSafety:
    def test_batch_override_disables_inherited_fast_path(self):
        # The E10 ablation pattern: a shipped-pair subclass that rewrites
        # P2 decides by the rewrite, never by the parent's two-step rule.
        class NoTwoStep(FrequencyPair):
            def p2(self, view):
                return False

        no_two_step = _dex_with(NoTwoStep, "dex-no-2step")
        # gap 2t + 3 at n=13, t=2: the two-step band; minority values at the
        # low pids so, under constant latency, P1 never holds on a quorum.
        inputs = list(reversed(with_frequency_gap(1, 2, 13, 7)))
        for seed in range(3):
            runs = {
                spec.name: Scenario(
                    spec, inputs, seed=seed, latency=ConstantLatency(1.0)
                ).run()
                for spec in (dex_freq(), no_two_step)
            }
            assert kinds_of(runs["dex-freq"]) == {DecisionKind.TWO_STEP}
            assert kinds_of(runs["dex-no-2step"]) == {DecisionKind.UNDERLYING}
            assert runs["dex-no-2step"].agreement_holds()

    def test_histogram_claim_not_inherited_past_overrides(self):
        class NoTwoStep(FrequencyPair):
            def p2(self, view):
                return False

        class Redeclared(FrequencyPair):
            histogram_invariant = True

            def p2(self, view):
                return False

        assert not NoTwoStep.histogram_invariant  # claim dropped, safe default
        assert Redeclared.histogram_invariant  # explicit redeclaration wins
        assert FrequencyPair.histogram_invariant


class TestMultisetCoverage:
    @pytest.mark.parametrize(
        "pair",
        [FrequencyPair(7, 1), PrivilegedPair(7, 1, privileged=1)],
        ids=["freq", "prv"],
    )
    def test_matches_brute_force_exactly(self, pair):
        values = [1, 2]
        brute = pair_coverage(
            pair, list(all_vectors(values, pair.n)), range(pair.t + 1)
        )
        multiset = exact_space_coverage(pair, values, range(pair.t + 1))
        assert multiset == brute  # identical floats, not approximately

    def test_three_values(self):
        pair = FrequencyPair(7, 1)
        values = [1, 2, 3]
        brute = pair_coverage(
            pair, list(all_vectors(values, pair.n)), range(pair.t + 1)
        )
        assert exact_space_coverage(pair, values, range(pair.t + 1)) == brute

    def test_weights_sum_to_space_size(self):
        for n, values in [(7, [1, 2]), (5, [1, 2, 3]), (31, [1, 2])]:
            total = sum(w for _, w in multiset_vectors(values, n))
            assert total == len(values) ** n

    def test_multiset_count_is_stars_and_bars(self):
        import math

        for n, k in [(7, 2), (5, 3), (31, 2)]:
            vectors = list(multiset_vectors(list(range(k)), n))
            assert len(vectors) == math.comb(n + k - 1, k - 1)

    def test_custom_pair_falls_back_to_full_enumeration(self):
        class PositionSensitive(FrequencyPair):
            histogram_invariant = False

        pair = PositionSensitive(7, 1)
        fallback = exact_space_coverage(pair, [1, 2], range(2))
        reference = exact_space_coverage(FrequencyPair(7, 1), [1, 2], range(2))
        assert fallback == reference


class TestRunMany:
    def test_run_many_single_seed_and_empty(self):
        scenario = Scenario(dex_freq(), unanimous(1, 7))
        assert scenario.run_many([5]).runs == 1
        assert scenario.run_many([]).runs == 0


SEED_ALGOS = {
    "dex-freq": dex_freq,
    "dex-prv": dex_prv,
    "bosco-weak": bosco_weak,
    "bosco-strong": bosco_strong,
    "izumi": izumi,
    "brasileiro": brasileiro,
    "twostep": twostep,
}
SEED_FAULTS = {
    None: lambda n: {},
    "silent": lambda n: {n - 1: Silent()},
    "crash": lambda n: {n - 1: Crash(budget=3)},
    "equivocate": lambda n: {n - 1: Equivocate(1, 2)},
    "spoiler": lambda n: {n - 1: Spoiler(fallback=2)},
    "collapse": lambda n: {n - 1: Collapse(2)},
}
SEED_INPUTS = {
    "unanimous": lambda n: unanimous(1, n),
    "split3": lambda n: split(1, 2, n, 3),
    "split5": lambda n: split(1, 2, n, 5),
}


class TestSeedDeterminismRegression:
    """Replay the frozen pre-engine fixture: decisions, decision kinds,
    step counts and message totals must be bit-identical for fixed seeds."""

    def test_fixture_present_and_plural(self):
        records = json.loads(DATA.read_text())
        assert len(records) > 100

    def test_replays_seed_fixture_exactly(self):
        records = json.loads(DATA.read_text())
        for rec in records:
            result = Scenario(
                SEED_ALGOS[rec["algorithm"]](),
                SEED_INPUTS[rec["inputs"]](rec["n"]),
                faults=SEED_FAULTS[rec["fault"]](rec["n"]),
                seed=rec["seed"],
            ).run()
            got = {
                str(pid): [d.value, d.kind.value, d.step]
                for pid, d in sorted(result.correct_decisions.items())
            }
            assert got == rec["decisions"], (
                rec["algorithm"], rec["n"], rec["inputs"], rec["fault"], rec["seed"]
            )
            assert result.stats.messages_sent == rec["messages_sent"]
