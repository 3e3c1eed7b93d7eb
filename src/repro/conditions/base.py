"""Abstractions for the condition-based approach (paper §2.3, §2.4, §3.2).

A *condition* is a set of input vectors.  *Adaptiveness* is captured by a
condition **sequence** ``(C_0, …, C_t)`` with ``C_k ⊇ C_{k+1}``: ``C_k`` is
the set of inputs for which fast decision is guaranteed when the actual
number of faults is ``k``.  A *doubly-expedited* algorithm is parameterised
by a **pair** of sequences ``(S¹, S²)`` — one for one-step and one for
two-step decisions — together with the run-time parameters ``P1``, ``P2``
and ``F`` used by Figure 1.

Concrete pairs (frequency-based, privileged-value-based) live in sibling
modules; the legality checker that validates criteria LT1–LU5 lives in
:mod:`repro.conditions.legality`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from ..errors import ConfigurationError
from ..types import Value
from .views import View


class Condition(abc.ABC):
    """A predicate over complete input vectors (a subset of ``V^n``)."""

    @abc.abstractmethod
    def contains(self, vector: View) -> bool:
        """True when ``vector`` belongs to the condition."""

    def __contains__(self, vector: View) -> bool:
        return self.contains(vector)


class PredicateCondition(Condition):
    """A condition defined by an arbitrary Python predicate (for tests)."""

    def __init__(self, predicate, description: str = "") -> None:
        self._predicate = predicate
        self.description = description

    def contains(self, vector: View) -> bool:
        return bool(self._predicate(vector))

    def __repr__(self) -> str:
        return f"PredicateCondition({self.description or self._predicate!r})"


class ConditionSequence:
    """An adaptive condition sequence ``(C_0, C_1, …, C_t)`` (paper §2.3).

    The sequence must be monotonically shrinking: ``C_k ⊇ C_{k+1}``.  This
    class does not verify that inclusion (it is a semantic property over all
    of ``V^n``); :mod:`repro.conditions.legality` checks it exhaustively on
    small spaces.
    """

    def __init__(self, conditions: Sequence[Condition]) -> None:
        if not conditions:
            raise ConfigurationError("a condition sequence needs at least C_0")
        self._conditions = tuple(conditions)

    def __len__(self) -> int:
        return len(self._conditions)

    def __getitem__(self, k: int) -> Condition:
        return self._conditions[k]

    def level_of(self, vector: View) -> int | None:
        """The largest ``k`` with ``vector ∈ C_k``, or ``None`` if not even
        ``C_0`` holds.

        By monotonicity, ``vector ∈ C_j`` for every ``j ≤ k``: the fast path
        is guaranteed whenever the actual fault count is at most ``k``.
        """
        best: int | None = None
        for k, condition in enumerate(self._conditions):
            if condition.contains(vector):
                best = k
            else:
                break
        return best


class ConditionSequencePair(abc.ABC):
    """A legal pair ``(S¹, S²)`` with its parameters ``P1``, ``P2``, ``F``.

    This is the object the generic DEX algorithm is instantiated with.  The
    five legality criteria (LT1, LT2, LA3, LA4, LU5) are semantic obligations
    over the whole input space; subclasses prove them on paper (Theorems 1
    and 2) and :mod:`repro.conditions.legality` re-verifies them mechanically
    on bounded spaces.

    Attributes:
        n: number of processes.
        t: failure upper bound.
    """

    #: The resilience bound the pair needs to be meaningful, as a multiplier:
    #: the pair requires ``n > required_ratio * t``.
    required_ratio: int = 5

    #: True when membership in every condition of both sequences depends only
    #: on the value histogram of the vector, never on entry positions.  Such
    #: pairs admit the multiset-weighted exact coverage enumerator
    #: (:func:`repro.analysis.coverage.exact_space_coverage`), collapsing
    #: ``|V|^n`` vectors to ``C(n+|V|−1, |V|−1)`` weighted multisets.
    histogram_invariant: bool = False

    def __init__(self, n: int, t: int, *, enforce_resilience: bool = True) -> None:
        if enforce_resilience and n <= self.required_ratio * t:
            raise ConfigurationError(
                f"{type(self).__name__} requires n > {self.required_ratio}t; "
                f"got n={n}, t={t}"
            )
        self.n = n
        self.t = t
        self._one_step_sequence_cache: ConditionSequence | None = None
        self._two_step_sequence_cache: ConditionSequence | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        """``histogram_invariant`` is a per-class *claim*: a subclass that
        redefines a predicate or a sequence drops it to False unless it
        redeclares it."""
        super().__init_subclass__(**kwargs)
        redefines_space = any(
            name in cls.__dict__
            for name in ("p1", "p2", "f", "one_step_sequence", "two_step_sequence")
        )
        if redefines_space and "histogram_invariant" not in cls.__dict__:
            cls.histogram_invariant = False

    # -- run-time parameters (Figure 1) ---------------------------------------

    # Each predicate reads its view through the queries a ``View`` and a
    # running :class:`~repro.conditions.incremental.ViewStats` both answer
    # (``count``, ``first``, ``second``, ``frequency_gap``, ``known``,
    # ``is_complete``, ``entries``): the coverage and legality sweeps pass
    # a ``View``, the protocols their O(1)-per-arrival ``ViewStats``.

    @abc.abstractmethod
    def p1(self, view: View) -> bool:
        """``P1(J)`` — may the process decide in one step from view ``J``?"""

    @abc.abstractmethod
    def p2(self, view: View) -> bool:
        """``P2(J)`` — may the process decide in two steps from view ``J``?"""

    @abc.abstractmethod
    def f(self, view: View) -> Value:
        """``F(J)`` — the decision value extracted from view ``J``."""

    # -- the sequences themselves ---------------------------------------------

    @abc.abstractmethod
    def one_step_sequence(self) -> ConditionSequence:
        """``S¹ = (C¹_0, …, C¹_t)`` — conditions for one-step decision."""

    @abc.abstractmethod
    def two_step_sequence(self) -> ConditionSequence:
        """``S² = (C²_0, …, C²_t)`` — conditions for two-step decision."""

    # -- convenience -----------------------------------------------------------

    def one_step_level(self, vector: View) -> int | None:
        """Largest ``k`` such that one-step decision is guaranteed for ``f ≤ k``.

        The sequence object is built once and cached — the conditions are
        pure functions of the constructor arguments, and coverage sweeps
        call this per vector.
        """
        if self._one_step_sequence_cache is None:
            self._one_step_sequence_cache = self.one_step_sequence()
        return self._one_step_sequence_cache.level_of(vector)

    def two_step_level(self, vector: View) -> int | None:
        """Largest ``k`` such that two-step decision is guaranteed for ``f ≤ k``."""
        if self._two_step_sequence_cache is None:
            self._two_step_sequence_cache = self.two_step_sequence()
        return self._two_step_sequence_cache.level_of(vector)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, t={self.t})"
