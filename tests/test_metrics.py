"""Tests for metrics aggregation and report rendering."""

from repro.harness import Scenario, dex_freq, twostep
from repro.metrics.collectors import RunAggregate
from repro.metrics.report import format_histogram, format_series, format_table
from repro.sim.latency import ConstantLatency
from repro.types import DecisionKind
from repro.workloads.inputs import split, unanimous


def make_results():
    fast = Scenario(dex_freq(), unanimous(1, 7), seed=0, latency=ConstantLatency(1.0)).run()
    slow = Scenario(dex_freq(), split(1, 2, 7, 3), seed=1, latency=ConstantLatency(1.0)).run()
    return fast, slow


class TestRunAggregate:
    def test_add_accumulates(self):
        fast, slow = make_results()
        agg = RunAggregate(label="test")
        agg.add(fast)
        agg.add(slow)
        assert agg.runs == 2
        assert len(agg.steps) == 14  # 7 correct decisions per run
        assert agg.max_steps == [1, 4]

    def test_mean_and_worst(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.mean_step == (7 * 1 + 7 * 4) / 14
        assert agg.worst_step == 4
        assert agg.mean_max_step == 2.5

    def test_kind_fractions(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.kind_fraction(DecisionKind.ONE_STEP) == 0.5
        assert agg.kind_fraction(DecisionKind.UNDERLYING) == 0.5
        assert agg.kind_fraction(DecisionKind.TWO_STEP) == 0.0

    def test_fraction_within(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.fraction_within(1) == 0.5
        assert agg.fraction_within(4) == 1.0

    def test_percentiles(self):
        agg = RunAggregate()
        agg.steps = [1, 1, 1, 4]
        assert agg.step_percentile(0.5) == 1.0
        assert agg.step_percentile(0.99) == 4.0

    def test_unanimity_violation_counting(self):
        fast, _ = make_results()
        agg = RunAggregate()
        agg.add(fast, expected_value=2)  # decided 1, expected 2
        assert agg.unanimity_violations == 1
        agg.add(fast, expected_value=1)
        assert agg.unanimity_violations == 1

    def test_histogram(self):
        agg = RunAggregate()
        agg.steps = [1, 1, 2]
        assert agg.step_histogram() == {1: 2, 2: 1}

    def test_empty_aggregate_safe(self):
        agg = RunAggregate()
        assert agg.mean_step == 0.0
        assert agg.worst_step == 0
        assert agg.step_percentile(0.5) == 0.0
        assert agg.fraction_within(1) == 0.0

    def test_summary_keys(self):
        fast, _ = make_results()
        agg = RunAggregate()
        agg.add(fast)
        summary = agg.summary()
        assert summary["runs"] == 1
        assert summary["one_step_frac"] == 1.0
        assert summary["agreement_violations"] == 0


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert "22" in lines[3]

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_title(self):
        assert format_table([{"a": 1}], title="T").splitlines()[0] == "T"

    def test_empty(self):
        assert format_table([]) == ""
        assert format_table([], title="T") == "T\n"

    def test_float_formatting(self):
        text = format_table([{"x": 0.5}])
        assert "0.5" in text


class TestFormatHistogram:
    def test_bars_scale(self):
        text = format_histogram({1: 10, 2: 5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty(self):
        assert "(empty)" in format_histogram({})


class TestFormatSeries:
    def test_series_table(self):
        text = format_series([0, 1], [0.5, 0.7], "f", "coverage")
        assert "f" in text and "coverage" in text
        assert "0.7" in text


class TestPercentile:
    def test_nearest_rank_and_no_sample(self):
        from repro.types import percentile

        assert percentile([], 0.5) is None
        assert percentile([3, 1, 2], 0.5) == 2.0
        assert percentile([4, 1, 3, 2], 0.99) == 4.0
        assert percentile([4, 1, 3, 2], 0.25) == 2.0
        assert RunAggregate().step_percentile(0.5) == 0.0
