"""Additional property-based suites: privileged pair under targeted
attacks, the replicated log under random contention, coverage/guarantee
consistency, and the synchronous row under random round crashes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coverage import dex_one_step_guaranteed
from repro.baselines.crash_onestep import crash_one_step_level
from repro.conditions.frequency import FrequencyPair
from repro.conditions.privileged import PrivilegedPair
from repro.conditions.views import View
from repro.harness import (
    Collapse,
    RoundCrash,
    Scenario,
    Spoiler,
    bosco_weak,
    dex_freq,
    dex_prv,
    sync_onestep,
    twostep,
)
from repro.shard import ShardedService

seeds = st.integers(min_value=0, max_value=50_000)


@settings(max_examples=25, deadline=None)
@given(
    inputs=st.lists(st.sampled_from(["C", "A"]), min_size=6, max_size=6),
    seed=seeds,
)
def test_dex_prv_survives_spoiler(inputs, seed):
    """The privileged instantiation under the condition-aware spoiler."""
    result = Scenario(
        dex_prv("C"), inputs, faults={5: Spoiler(fallback="A")}, seed=seed
    ).run()
    assert result.all_correct_decided()
    assert result.agreement_holds()


@settings(max_examples=25, deadline=None)
@given(
    inputs=st.lists(st.sampled_from([1, 2]), min_size=7, max_size=7),
    seed=seeds,
)
def test_dex_freq_survives_collapser(inputs, seed):
    result = Scenario(
        dex_freq(), inputs, faults={6: Collapse(2)}, seed=seed
    ).run()
    assert result.all_correct_decided()
    assert result.agreement_holds()


@settings(max_examples=15, deadline=None)
@given(
    contention=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    algorithm=st.sampled_from([dex_freq, bosco_weak, twostep]),
    seed=seeds,
)
def test_service_logs_identical(contention, algorithm, seed):
    """Random contention on the sequential log (one shard, one command a
    slot): every correct replica orders the same log, and all of it."""
    report = ShardedService(
        shards=1, max_batch=1, algorithm=algorithm(), contention=contention, seed=seed
    ).run(count=4)
    assert not report.divergence
    assert report.commands == report.slots == 4


@settings(max_examples=60, deadline=None)
@given(
    inputs=st.lists(st.sampled_from([1, 2, 3]), min_size=13, max_size=13),
    f=st.integers(min_value=0, max_value=2),
)
def test_guarantee_consistency_freq(inputs, f):
    """coverage.dex_one_step_guaranteed ↔ the pair's level computation."""
    pair = FrequencyPair(13, 2)
    vector = View(inputs)
    level = pair.one_step_level(vector)
    expected = level is not None and level >= f
    assert dex_one_step_guaranteed(pair, vector, f) == expected


@settings(max_examples=60, deadline=None)
@given(
    count_m=st.integers(min_value=0, max_value=11),
    f=st.integers(min_value=0, max_value=2),
)
def test_guarantee_consistency_prv(count_m, f):
    """Privileged levels match the closed threshold #m > 3t + k."""
    pair = PrivilegedPair(11, 2, privileged="m")
    vector = View(["m"] * count_m + ["x"] * (11 - count_m))
    level = pair.one_step_level(vector)
    if count_m > 3 * 2 + f and f <= 2:
        assert level is not None and level >= f
    if level is not None:
        assert count_m > 3 * 2 + level


@settings(max_examples=20, deadline=None)
@given(
    inputs=st.lists(st.sampled_from([1, 2]), min_size=5, max_size=5),
    crash_round=st.integers(min_value=1, max_value=3),
    seed=seeds,
)
def test_sync_agreement_random_crashes(inputs, crash_round, seed):
    """Synchronous consensus: agreement + termination for random inputs and
    a random crash (with adversary-chosen partial delivery)."""
    result = Scenario(
        sync_onestep(),
        inputs,
        t=2,
        faults={4: RoundCrash(crash_round, seed=seed)},
        seed=seed,
        engine="sync",
    ).run()
    assert result.agreement_holds()
    assert result.all_correct_decided()
    # one-round guarantee (level >= f with f = 1 crash)
    level = crash_one_step_level(View(inputs), result.config.t)
    if level is not None and level >= 1 and crash_round >= 2:
        # crash after round 1: round-1 views are complete
        assert {d.step for d in result.correct_decisions.values()} == {1}
