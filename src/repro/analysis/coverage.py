"""Condition coverage: *which inputs* decide fast, and for how many faults.

The paper's central quantitative claim (§1.2, Table 1) is that DEX's
condition-based fast paths cover **more inputs** than the
agreed-proposal fast paths of prior one-step algorithms, and that the
coverage *adapts* — it grows as the actual failure count ``f`` shrinks.
This module computes that coverage two ways:

* **analytically** — worst-case-schedule guarantees derived from the
  conditions themselves (Lemmas 4/5 for DEX) and from the thresholds of
  the baselines;
* **exactly / by Monte-Carlo** — fractions of the input space (or of a
  workload distribution) covered, enumerated exhaustively for small
  ``(n, |V|)`` and sampled otherwise.

Guarantee formulas (``c_v`` = copies of ``v`` among **correct** entries,
adversary controls schedule and Byzantine entries):

* DEX one-/two-step: input ``I ∈ C¹_f`` / ``I ∈ C²_f`` (Lemmas 4 and 5);
* BOSCO: decide requires more than ``(n + 3t)/2`` matching votes among the
  first ``n − t``; the adversary delays ``t`` honest ``v``-voters and
  makes all ``f`` Byzantine processes vote otherwise, so the guarantee is
  ``c_v − t > (n + 3t)/2``;
* Brasileiro (crash): all first ``n − t`` values must match with crashes
  only, so ``c_v − t ≥ n − t``, i.e. every correct process proposes ``v``
  (the classic "agreed proposals" situation).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..conditions.base import ConditionSequencePair
from ..conditions.generators import all_vectors, multiset_vectors
from ..conditions.views import View
from ..types import BOTTOM, SystemConfig, Value


def correct_count(vector: View, value: Value, faulty: Iterable[int]) -> int:
    """Copies of ``value`` among the non-faulty entries of ``vector``."""
    faulty_set = frozenset(faulty)
    return sum(
        1 for i, v in enumerate(vector) if v == value and i not in faulty_set
    )


# -- per-vector guarantees ------------------------------------------------------------


def dex_one_step_guaranteed(pair: ConditionSequencePair, vector: View, f: int) -> bool:
    """Lemma 4: one-step decision guaranteed iff ``I ∈ C¹_f`` (``f ≤ t``)."""
    level = pair.one_step_level(vector)
    return level is not None and level >= f


def dex_two_step_guaranteed(pair: ConditionSequencePair, vector: View, f: int) -> bool:
    """Lemma 5: two-step decision guaranteed iff ``I ∈ C²_f`` (``f ≤ t``)."""
    level = pair.two_step_level(vector)
    return level is not None and level >= f


def bosco_one_step_guaranteed(
    vector: View, config: SystemConfig, f: int, faulty: Sequence[int] | None = None
) -> bool:
    """Worst-case-schedule one-step guarantee for BOSCO (both variants run
    the same threshold; only the claimed resilience differs).

    Args:
        vector: intended proposals (faulty entries are meaningless — the
            adversary replaces them).
        config: system parameters.
        f: actual number of Byzantine processes.
        faulty: which processes are Byzantine; defaults to the last ``f``.
    """
    faulty_set = (
        frozenset(faulty) if faulty is not None else frozenset(range(config.n - f, config.n))
    )
    # One pass over the entries: tally correct copies per value, take the max.
    counts: dict[Value, int] = {}
    for i, v in enumerate(vector):
        if v is not BOTTOM and i not in faulty_set:
            counts[v] = counts.get(v, 0) + 1
    best = max(counts.values(), default=0)
    # The adversary can keep t honest votes out of the first n − t and makes
    # every Byzantine vote disagree.
    return 2 * (best - config.t) > config.n + 3 * config.t


def brasileiro_one_step_guaranteed(
    vector: View, config: SystemConfig, f: int, faulty: Sequence[int] | None = None
) -> bool:
    """Crash-model guarantee: every correct process proposes the same value
    (any crashed subset of the first ``n − t`` still matches)."""
    faulty_ids = set(faulty) if faulty is not None else set(range(config.n - f, config.n))
    correct_values = {v for i, v in enumerate(vector) if i not in faulty_ids}
    return len(correct_values) == 1


# -- coverage over spaces and workloads ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoveragePoint:
    """Coverage fractions at one actual failure count."""

    f: int
    one_step: float
    two_step: float


def _level_points(
    levels: Sequence[tuple[int | None, int | None]],
    weights: Sequence[int] | None,
    f_values: Iterable[int],
) -> list[CoveragePoint]:
    """Threshold pre-computed ``(one_level, two_level)`` pairs across ``f``.

    ``level ≥ f`` is exactly the Lemma 4/5 guarantee, so each vector's two
    adaptive levels — computed **once** — answer every failure count; the
    per-``f`` work is a weighted counting pass.
    """
    if weights is None:
        total = len(levels)
        weights = [1] * total
    else:
        total = sum(weights)
    points = []
    for f in f_values:
        one = 0
        two = 0
        for (one_level, two_level), w in zip(levels, weights):
            if one_level is not None and one_level >= f:
                one += w
                two += w  # C¹_f ⊆ C²_f: one-step inputs count as ≤ two-step
            elif two_level is not None and two_level >= f:
                two += w
        points.append(CoveragePoint(f, one / total, two / total))
    return points


def pair_coverage(
    pair: ConditionSequencePair,
    vectors: Sequence[View],
    f_values: Iterable[int],
    weights: Sequence[int] | None = None,
) -> list[CoveragePoint]:
    """Fraction of ``vectors`` guaranteed to decide in ≤1 / ≤2 steps per
    failure count.

    ``two_step`` is cumulative — it counts inputs deciding in *at most* two
    steps (``C¹_f ⊆ C²_f`` for both shipped pairs).  Each vector's adaptive
    levels are computed once and thresholded across all ``f`` values, not
    recomputed per ``(vector, f)`` pair.

    Args:
        weights: optional per-vector multiplicities (used by the multiset
            enumerator); fractions are then weighted by ``w / sum(weights)``.
    """
    levels = [(pair.one_step_level(v), pair.two_step_level(v)) for v in vectors]
    return _level_points(levels, weights, f_values)


def baseline_coverage(
    name: str,
    config: SystemConfig,
    vectors: Sequence[View],
    f_values: Iterable[int],
) -> list[CoveragePoint]:
    """Fast-path coverage for ``"bosco"`` or ``"brasileiro"`` (no two-step
    scheme exists for either, so ``two_step == one_step``)."""
    if name == "bosco":
        check = bosco_one_step_guaranteed
    elif name == "brasileiro":
        check = brasileiro_one_step_guaranteed
    else:
        raise ValueError(f"unknown baseline {name!r}")
    total = len(vectors)
    points = []
    for f in f_values:
        one = sum(1 for v in vectors if check(v, config, f))
        points.append(CoveragePoint(f, one / total, one / total))
    return points


def exact_space_coverage(
    pair: ConditionSequencePair, values: Sequence[Value], f_values: Iterable[int]
) -> list[CoveragePoint]:
    """Exhaustive coverage of the whole space ``V^n``.

    For histogram-invariant pairs (both shipped pairs) the space is
    enumerated as multisets with multinomial weights —
    ``C(n+|V|−1, |V|−1)`` checks instead of ``|V|^n`` — which makes exact
    coverage tractable at e.g. ``n = 31``.  The weighted fractions are
    identical (the counted integers are the same), not approximations.
    Custom position-sensitive pairs fall back to full enumeration.
    """
    if pair.histogram_invariant:
        weighted = list(multiset_vectors(values, pair.n))
        vectors = [v for v, _ in weighted]
        weights = [w for _, w in weighted]
        return pair_coverage(pair, vectors, f_values, weights=weights)
    vectors = list(all_vectors(values, pair.n))
    return pair_coverage(pair, vectors, f_values)
