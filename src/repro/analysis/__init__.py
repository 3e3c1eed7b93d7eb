"""Analysis: condition coverage and regeneration of the paper's tables."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".closed_form": (
            "gap_exceeds_probability",
            "count_exceeds_probability",
            "dex_freq_one_step",
            "dex_freq_two_step",
            "dex_prv_one_step",
            "dex_prv_two_step",
            "bosco_one_step",
        ),
        ".expected_steps": (
            "dex_freq_expected_steps",
            "bosco_expected_steps",
            "twostep_expected_steps",
            "crossover_contention",
        ),
        ".coverage": (
            "CoveragePoint",
            "pair_coverage",
            "baseline_coverage",
            "exact_space_coverage",
            "dex_one_step_guaranteed",
            "dex_two_step_guaranteed",
            "bosco_one_step_guaranteed",
            "brasileiro_one_step_guaranteed",
            "correct_count",
        ),
        ".tables": (
            "paper_table1",
            "validated_table1",
            "validate_algorithm",
            "ValidationOutcome",
            "dex_condition_examples",
        ),
    },
)
