"""The frequency-based legal condition-sequence pair ``P_freq`` (paper §3.3).

The building block is the *frequency-based condition*::

    C_freq(d) = { I ∈ V^n : #_1st(I)(I) − #_2nd(I)(I) > d }

i.e. the most frequent value beats the runner-up by more than ``d``.
``C_freq(d)`` is a ``d``-legal condition [Mostefaoui et al.], necessary and
sufficient for crash consensus with at most ``d`` crashes.

The pair instantiates the sequences as::

    C¹_k = C_freq(4t + 2k)          (one-step,  requires n > 6t)
    C²_k = C_freq(2t + 2k)          (two-step)

with run-time parameters::

    P1_freq(J) ≡ gap(J) > 4t
    P2_freq(J) ≡ gap(J) > 2t
    F_freq(J)  = 1st(J)

Theorem 1 of the paper proves this pair legal; the mechanical re-check lives
in :mod:`repro.conditions.legality`.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..types import Value
from .base import Condition, ConditionSequence, ConditionSequencePair
from .views import View


class FrequencyCondition(Condition):
    """``C_freq(d)``: the top value leads the second by more than ``d``."""

    def __init__(self, d: int) -> None:
        if d < 0:
            raise ConfigurationError(f"frequency margin d must be >= 0, got {d}")
        self.d = d

    def contains(self, vector: View) -> bool:
        return vector.frequency_gap() > self.d

    def __repr__(self) -> str:
        return f"C_freq({self.d})"


class FrequencyPair(ConditionSequencePair):
    """``P_freq`` — the frequency-based pair of §3.3 (requires ``n > 6t``)."""

    required_ratio = 6
    histogram_invariant = True  # the gap is a pure function of the histogram

    def p1(self, view: View) -> bool:
        """``P1_freq(J) ≡ #_1st(J)(J) − #_2nd(J)(J) > 4t``."""
        return view.frequency_gap() > 4 * self.t

    def p2(self, view: View) -> bool:
        """``P2_freq(J) ≡ #_1st(J)(J) − #_2nd(J)(J) > 2t``."""
        return view.frequency_gap() > 2 * self.t

    def f(self, view: View) -> Value:
        """``F_freq(J) = 1st(J)`` (ties pick the largest value)."""
        top = view.first()
        if top is None:
            raise ValueError("F is undefined on the all-⊥ view")
        return top

    def one_step_sequence(self) -> ConditionSequence:
        """``C¹_k = C_freq(4t + 2k)`` for ``k = 0 .. t``."""
        return ConditionSequence(
            [FrequencyCondition(4 * self.t + 2 * k) for k in range(self.t + 1)]
        )

    def two_step_sequence(self) -> ConditionSequence:
        """``C²_k = C_freq(2t + 2k)`` for ``k = 0 .. t``."""
        return ConditionSequence(
            [FrequencyCondition(2 * self.t + 2 * k) for k in range(self.t + 1)]
        )
