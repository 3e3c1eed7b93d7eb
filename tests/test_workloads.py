"""Tests for workload generators (inputs and failure patterns)."""

import pytest

from repro.conditions.views import View
from repro.harness import Silent
from repro.workloads.failures import FailureSweep
from repro.workloads.inputs import (
    AdversarialBoundaryWorkload,
    ContentionWorkload,
    ZipfWorkload,
    split,
    unanimous,
    with_frequency_gap,
)


class TestStaticVectors:
    def test_unanimous(self):
        assert unanimous("v", 3) == ["v", "v", "v"]

    def test_split_counts(self):
        vector = split(1, 2, 7, 3)
        assert vector.count(1) == 4
        assert vector.count(2) == 3

    def test_split_bounds(self):
        with pytest.raises(ValueError):
            split(1, 2, 5, 6)

    def test_with_frequency_gap_exact(self):
        for n, gap in [(7, 5), (7, 3), (13, 9), (12, 4)]:
            vector = View(with_frequency_gap(1, 2, n, gap))
            assert vector.frequency_gap() == gap

    def test_with_frequency_gap_parity_error(self):
        with pytest.raises(ValueError):
            with_frequency_gap(1, 2, 7, 4)  # n - gap odd

    def test_gap_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            with_frequency_gap(1, 2, 5, 7)


class TestContentionWorkload:
    def test_zero_contention_is_unanimous(self):
        w = ContentionWorkload(10, favourite=1, p=0.0, seed=1)
        assert w.vector() == unanimous(1, 10)

    def test_full_contention_never_favourite(self):
        w = ContentionWorkload(50, favourite=1, contenders=[2], p=1.0, seed=2)
        assert 1 not in w.vector()

    def test_deterministic(self):
        a = ContentionWorkload(10, p=0.5, seed=3).vectors(5)
        b = ContentionWorkload(10, p=0.5, seed=3).vectors(5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionWorkload(5, p=1.5)
        with pytest.raises(ValueError):
            ContentionWorkload(5, contenders=[])


class TestZipfWorkload:
    def test_weights_normalised(self):
        w = ZipfWorkload(5, [1, 2, 3], alpha=1.0)
        assert abs(sum(w.weights) - 1.0) < 1e-9

    def test_rank_one_dominates(self):
        w = ZipfWorkload(2000, ["hot", "warm", "cold"], alpha=2.0, seed=4)
        vector = View(w.vector())
        assert vector.count("hot") > vector.count("cold")

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfWorkload(5, [])
        with pytest.raises(ValueError):
            ZipfWorkload(5, [1], alpha=-1)


class TestBoundaryWorkload:
    def test_one_step_boundary_levels(self):
        from repro.conditions.frequency import FrequencyPair

        n, t = 13, 2
        pair = FrequencyPair(n, t)
        workload = AdversarialBoundaryWorkload(n, t)
        for k in range(t):
            vector = View(workload.one_step_boundary(k))
            assert pair.one_step_level(vector) == k

    def test_two_step_boundary_levels(self):
        from repro.conditions.frequency import FrequencyPair

        n, t = 13, 2
        pair = FrequencyPair(n, t)
        workload = AdversarialBoundaryWorkload(n, t)
        for k in range(t):
            vector = View(workload.two_step_boundary(k))
            assert pair.two_step_level(vector) == k


class TestFailureSweep:
    def test_default_picks_highest_ids(self):
        sweep = FailureSweep(10, 3)
        assert sweep.faulty_ids(2) == [8, 9]

    def test_f_zero_empty(self):
        assert FailureSweep(10, 3).faulty_ids(0) == []

    def test_f_bounds(self):
        with pytest.raises(ValueError):
            FailureSweep(10, 2).faulty_ids(3)

    def test_randomized_within_range(self):
        sweep = FailureSweep(10, 3, randomize=True, seed=1)
        ids = sweep.faulty_ids(3)
        assert len(ids) == 3
        assert all(0 <= i < 10 for i in ids)

    def test_patterns(self):
        sweep = FailureSweep(10, 2)
        patterns = sweep.patterns(lambda pid: Silent())
        assert [f for f, _ in patterns] == [0, 1, 2]
        assert len(patterns[2][1]) == 2

    def test_t_ge_n_rejected(self):
        with pytest.raises(ValueError):
            FailureSweep(3, 3)
