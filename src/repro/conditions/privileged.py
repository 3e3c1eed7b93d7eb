"""The privileged-value-based condition-sequence pair ``P_prv`` (paper §3.4).

In agreement problems such as atomic commitment one value (e.g. ``Commit``)
is proposed by most processes most of the time.  Granting it a privilege
expedites decision.  The building block is::

    C_prv(m, d) = { I ∈ V^n : #_m(I) > d }

which is again a ``d``-legal condition.  The pair instantiates::

    C¹_k = C_prv(m, 3t + k)          (one-step, requires n > 5t)
    C²_k = C_prv(m, 2t + k)          (two-step)

with run-time parameters::

    P1_prv(J) ≡ #_m(J) > 3t
    P2_prv(J) ≡ #_m(J) > 2t
    F_prv(J)  = m                       if #_m(J) > t
              = most frequent non-⊥ value of J   otherwise

Theorem 2 of the paper proves this pair legal.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..types import Value
from .base import Condition, ConditionSequence, ConditionSequencePair
from .views import View


class PrivilegedCondition(Condition):
    """``C_prv(m, d)``: the privileged value ``m`` occurs more than ``d`` times."""

    def __init__(self, privileged: Value, d: int) -> None:
        if d < 0:
            raise ConfigurationError(f"privileged margin d must be >= 0, got {d}")
        self.privileged = privileged
        self.d = d

    def contains(self, vector: View) -> bool:
        return vector.count(self.privileged) > self.d

    def __repr__(self) -> str:
        return f"C_prv({self.privileged!r}, {self.d})"


class PrivilegedPair(ConditionSequencePair):
    """``P_prv`` — the privileged-value pair of §3.4 (requires ``n > 5t``).

    Every process must know the privileged value ``m`` a priori; it is a
    constructor argument here.
    """

    required_ratio = 5
    histogram_invariant = True  # #_m(I) is a pure function of the histogram

    def __init__(
        self, n: int, t: int, privileged: Value, *, enforce_resilience: bool = True
    ) -> None:
        super().__init__(n, t, enforce_resilience=enforce_resilience)
        self.privileged = privileged

    def p1(self, view: View) -> bool:
        """``P1_prv(J) ≡ #_m(J) > 3t``."""
        return view.count(self.privileged) > 3 * self.t

    def p2(self, view: View) -> bool:
        """``P2_prv(J) ≡ #_m(J) > 2t``."""
        return view.count(self.privileged) > 2 * self.t

    def f(self, view: View) -> Value:
        """``F_prv(J)``: ``m`` when ``#_m(J) > t``, else the most frequent value."""
        if view.count(self.privileged) > self.t:
            return self.privileged
        top = view.first()
        if top is None:
            raise ValueError("F is undefined on the all-⊥ view")
        return top

    def one_step_sequence(self) -> ConditionSequence:
        """``C¹_k = C_prv(m, 3t + k)`` for ``k = 0 .. t``."""
        return ConditionSequence(
            [PrivilegedCondition(self.privileged, 3 * self.t + k) for k in range(self.t + 1)]
        )

    def two_step_sequence(self) -> ConditionSequence:
        """``C²_k = C_prv(m, 2t + k)`` for ``k = 0 .. t``."""
        return ConditionSequence(
            [PrivilegedCondition(self.privileged, 2 * self.t + k) for k in range(self.t + 1)]
        )

    def __repr__(self) -> str:
        return (
            f"PrivilegedPair(n={self.n}, t={self.t}, "
            f"privileged={self.privileged!r})"
        )
