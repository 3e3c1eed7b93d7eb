"""Workload generators: input vectors and failure patterns."""

from .failures import FailureSweep
from .inputs import (
    AdversarialBoundaryWorkload,
    ContentionWorkload,
    CorrelatedWorkload,
    ZipfWorkload,
    as_view,
    split,
    unanimous,
    with_frequency_gap,
)

__all__ = [
    "unanimous",
    "split",
    "with_frequency_gap",
    "ContentionWorkload",
    "CorrelatedWorkload",
    "ZipfWorkload",
    "AdversarialBoundaryWorkload",
    "as_view",
    "FailureSweep",
]
