"""Closed-form coverage for the two-value i.i.d. workload model.

Under the workload model of the coverage experiments — each process
proposes the favourite value with probability ``q``, the contender
otherwise, independently — every guarantee of
:mod:`repro.analysis.coverage` has an exact binomial expression:

* the favourite count is ``X ~ Binomial(n, q)``;
* the frequency gap of the full vector is ``|2X − n|``, so
  ``P(I ∈ C_freq(d)) = P(|2X − n| > d)``;
* the privileged count is ``X`` itself, so
  ``P(I ∈ C_prv(m, d)) = P(X > d)``;
* BOSCO's worst-case guarantee (``f`` Byzantine among the last ids)
  needs ``max(Y, (n − f) − Y) > (n + 5t)/2`` with
  ``Y ~ Binomial(n − f, q)`` correct favourite votes.

These formulas serve two purposes: they cross-validate the Monte-Carlo
estimators of experiment E1 (the test suite checks agreement within
binomial confidence bounds), and they let benchmarks sweep coverage curves
at sizes where sampling would be slow.
"""

from __future__ import annotations

import math


def _check(n: int, q: float) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be a probability, got {q}")


def gap_exceeds_probability(n: int, q: float, d: int) -> float:
    """``P(|2X − n| > d)`` for ``X ~ Binomial(n, q)`` — membership in
    ``C_freq(d)`` for a random two-value input."""
    from scipy.stats import binom

    _check(n, q)
    if d < 0:
        return 1.0
    # |2X - n| > d  <=>  X > (n + d)/2  or  X < (n - d)/2
    upper = (n + d) / 2.0
    lower = (n - d) / 2.0
    p_high = binom.sf(math.floor(upper), n, q)  # P(X > upper)
    p_low = binom.cdf(math.ceil(lower) - 1, n, q)  # P(X < lower)
    return float(p_high + p_low)


def count_exceeds_probability(n: int, q: float, d: int) -> float:
    """``P(X > d)`` for ``X ~ Binomial(n, q)`` — membership in
    ``C_prv(favourite, d)``."""
    from scipy.stats import binom

    _check(n, q)
    return float(binom.sf(d, n, q))


def dex_freq_one_step(n: int, t: int, f: int, q: float) -> float:
    """Probability a random input is one-step-guaranteed for DEX-freq at
    actual failure count ``f`` (``I ∈ C¹_f = C_freq(4t + 2f)``)."""
    return gap_exceeds_probability(n, q, 4 * t + 2 * f)


def dex_freq_two_step(n: int, t: int, f: int, q: float) -> float:
    """``P(I ∈ C²_f = C_freq(2t + 2f))``."""
    return gap_exceeds_probability(n, q, 2 * t + 2 * f)


def dex_prv_one_step(n: int, t: int, f: int, q: float) -> float:
    """``P(I ∈ C¹_f = C_prv(m, 3t + f))`` with ``m`` the favourite."""
    return count_exceeds_probability(n, q, 3 * t + f)


def dex_prv_two_step(n: int, t: int, f: int, q: float) -> float:
    """``P(I ∈ C²_f = C_prv(m, 2t + f))``."""
    return count_exceeds_probability(n, q, 2 * t + f)


def bosco_one_step(n: int, t: int, f: int, q: float) -> float:
    """Probability of BOSCO's worst-case one-step guarantee.

    ``f`` Byzantine processes hold the last ids (matching the Monte-Carlo
    default); the ``n − f`` correct proposals are i.i.d., and the guarantee
    is ``max(Y, (n − f) − Y) − t > (n + 3t)/2``.
    """
    from scipy.stats import binom

    _check(n, q)
    if f < 0 or f > n:
        raise ValueError(f"f must be in [0, {n}], got {f}")
    correct = n - f
    threshold = (n + 5 * t) / 2.0  # c_v > (n + 3t)/2 + t
    floor_thr = math.floor(threshold)
    p_fav = binom.sf(floor_thr, correct, q)  # P(Y > threshold)
    p_con = binom.sf(floor_thr, correct, 1.0 - q)  # P(correct - Y > threshold)
    return float(p_fav + p_con)
