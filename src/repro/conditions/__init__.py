"""Condition-based machinery: views, condition sequences, legality.

This package implements §2.3, §2.4 and §3 of the paper: the view algebra
(:mod:`~repro.conditions.views`), adaptive condition sequences and the
doubly-expedited pair abstraction (:mod:`~repro.conditions.base`), the two
concrete legal pairs (:mod:`~repro.conditions.frequency`,
:mod:`~repro.conditions.privileged`), space enumeration/sampling
(:mod:`~repro.conditions.generators`) and the mechanical legality checker
(:mod:`~repro.conditions.legality`).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".base": (
            "Condition",
            "ConditionSequence",
            "ConditionSequencePair",
            "PredicateCondition",
        ),
        ".frequency": ("FrequencyCondition", "FrequencyPair"),
        ".privileged": ("PrivilegedCondition", "PrivilegedPair"),
        ".generators": (
            "VectorSampler",
            "all_vectors",
            "all_views",
            "multiset_vectors",
            "perturbations",
        ),
        ".incremental": ("ViewStats", "storable"),
        ".legality": ("LegalityChecker", "LegalityReport", "completable_within"),
        ".dlegal": ("DLegalityResult", "is_d_legal", "condition_members"),
        ".views": ("View", "hamming_distance", "merge_compatible", "views_of"),
    },
)
