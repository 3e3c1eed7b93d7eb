"""Incremental view statistics — the O(1) hot-path engine.

DEX's defining trick is that views keep updating *after* the ``n − t``
threshold, so ``P1``/``P2`` are re-evaluated on **every** later arrival
(§4).  Rebuilding a :class:`~repro.conditions.views.View` (and its
``Counter``) per arrival makes each re-evaluation Θ(n); across the Θ(n³)
system-wide deliveries of one instance that Θ(n)-per-event constant is the
dominant protocol-layer cost.  :class:`ViewStats` removes it: a mutable
companion to ``View`` that maintains, under single-entry first-write
updates,

* ``|J|`` (:attr:`ViewStats.known`),
* the per-value counts,
* ``1st(J)`` with the paper's largest-value tie-break, and
* the exact runner-up count ``#_2nd(J)(J)``

each in O(1) per update — so every quantity the shipped predicates need
(``|J| ≥ n − t``, the frequency gap, ``#_m(J)``, ``1st(J)``) is O(1) too.
It answers the same queries as ``View``, so a pair's ``P1``/``P2``/``F``
read it directly.

Why the top-two maintenance is exact: entries are binding (first write
wins), so a value's count only ever grows by 1.  When ``count[v]`` becomes
``c``:

* ``v`` was the leader — its count just grows;
* ``c`` exceeds the leader's count — only possible from ``c − 1`` equal to
  it, so ``v`` overtakes and the dethroned leader (still holding the old
  maximum) is exactly the new runner-up count;
* ``c`` ties the leader — the runner-up count becomes ``c`` whichever of
  the two wins the tie-break;
* otherwise the runner-up count is simply ``max(second, c)``.

``2nd(J)``'s *identity* is not needed by any predicate (the gap only needs
its count), so :meth:`second` recomputes it on demand in O(|values|); it is
observability, not hot path.

Tie-breaks mirror :func:`repro.types.largest` pairwise.  For homogeneous
(or int/str-mixed) value sets pairwise and batch comparison agree; exotic
partially-ordered value types may diverge from ``View.first`` on exact
count ties, which is why the equivalence suite fuzzes mixed int/str
alphabets.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from ..types import BOTTOM, Value, order_key
from .views import View

def storable(value: Value) -> bool:
    """True when a view can hold ``value``: not ``⊥`` (that marks an unbound
    slot) and hashable (views count values in hash tables).  Protocols
    refuse a received value that fails this before it reaches a view."""
    if value is BOTTOM:
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _prefer(a: Value, b: Value) -> bool:
    """True when ``a`` beats ``b`` under :func:`repro.types.largest`."""
    try:
        return a > b
    except TypeError:
        return order_key(a) > order_key(b)


class ViewStats:
    """Running statistics of one growing view, O(1) per entry update.

    The update protocol matches how every algorithm in this library fills
    its views: each slot is written at most once (the binding first value
    per sender), never cleared.  :meth:`set_entry` enforces that and
    returns whether the write was binding.

    Args:
        n: number of slots (the system's ``n``).
    """

    __slots__ = (
        "n",
        "_entries",
        "_counts",
        "known",
        "_top_value",
        "_top_count",
        "_second_count",
    )

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._entries: list[Value] = [BOTTOM] * n
        self._counts: dict[Value, int] = {}
        #: ``|J|`` — number of bound (non-``⊥``) entries.
        self.known = 0
        # ``⊥`` while no value is bound: no slot is ever bound to ``⊥``
        self._top_value: Value = BOTTOM
        self._top_count = 0
        self._second_count = 0

    @classmethod
    def from_entries(cls, entries: Iterable[Value]) -> "ViewStats":
        """Build stats by replaying ``entries`` (``⊥`` slots stay unbound)."""
        entries = list(entries)
        stats = cls(len(entries))
        for index, value in enumerate(entries):
            if value is not BOTTOM:
                stats.set_entry(index, value)
        return stats

    # -- the single-entry update --------------------------------------------------

    def set_entry(self, index: int, value: Value) -> bool:
        """Bind slot ``index`` to ``value``; no-op when already bound.

        Returns:
            True when this write was the binding one.
        """
        if value is BOTTOM:
            raise ValueError("cannot bind an entry to ⊥")
        if self._entries[index] is not BOTTOM:
            return False
        self._entries[index] = value
        self.known += 1
        count = self._counts.get(value, 0) + 1
        self._counts[value] = count
        top_count = self._top_count
        if self._top_value is BOTTOM:
            self._top_value = value
            self._top_count = 1
        elif value == self._top_value:
            self._top_count = count
        elif count > top_count:
            # overtake: the dethroned leader still holds the old maximum,
            # which is therefore the exact new runner-up count
            self._second_count = top_count
            self._top_value = value
            self._top_count = count
        elif count == top_count:
            if _prefer(value, self._top_value):
                self._top_value = value
            self._second_count = count
        elif count > self._second_count:
            self._second_count = count
        return True

    # -- O(1) observations ---------------------------------------------------------

    def count(self, value: Value) -> int:
        """``#_v(J)`` (``⊥`` queries count the unbound slots)."""
        if value is BOTTOM:
            return self.n - self.known
        return self._counts.get(value, 0)

    def first(self) -> Optional[Value]:
        """``1st(J)`` — most frequent value, largest-value tie-break."""
        if self._top_value is BOTTOM:
            return None
        return self._top_value

    @property
    def first_count(self) -> int:
        """``#_1st(J)(J)`` (0 for the all-``⊥`` view)."""
        return self._top_count

    @property
    def second_count(self) -> int:
        """``#_2nd(J)(J)`` (0 when fewer than two distinct values)."""
        return self._second_count

    def frequency_gap(self) -> int:
        """``#_1st(J)(J) − #_2nd(J)(J)`` — the frequency pair's predicate fuel."""
        return self._top_count - self._second_count

    @property
    def is_complete(self) -> bool:
        return self.known == self.n

    def __len__(self) -> int:
        return self.n

    # -- observability (not hot path) ---------------------------------------------

    def second(self) -> Optional[Value]:
        """``2nd(J)`` — recomputed on demand in O(|values|)."""
        if self._second_count == 0:
            return None
        top = self._top_value
        best: Value = BOTTOM
        for value, count in self._counts.items():
            if count == self._second_count and value != top:
                if best is BOTTOM or _prefer(value, best):
                    best = value
        return None if best is BOTTOM else best

    @property
    def entries(self) -> tuple[Value, ...]:
        """The raw entries, ``⊥`` included."""
        return tuple(self._entries)

    def as_view(self) -> View:
        """Snapshot as an immutable :class:`View`."""
        return View(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(
            repr(e) if e is not BOTTOM else "⊥" for e in self._entries
        )
        return f"ViewStats({body})"
