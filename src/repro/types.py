"""Shared primitive types used across every layer of the library.

The paper's vocabulary maps onto these types as follows:

* a *process* ``p_i`` is identified by a 0-based :data:`ProcessId`;
* a *proposal value* is any hashable, totally ordered Python object
  (:data:`Value`); the paper's ordered set ``V`` is typically realised with
  ``int`` or ``str`` values in tests and benchmarks;
* a *communication step* is measured as causal message depth
  (:class:`StepCount`); a one-step decision happens at depth 1, a two-step
  decision at depth 2;
* the way a process decided (line 8, line 17 or line 21 of Figure 1) is a
  :class:`DecisionKind`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TypeAlias, TypeVar

ProcessId: TypeAlias = int
Value: TypeAlias = object
StepCount: TypeAlias = int

#: The default value the paper writes as ``⊥`` (bottom).  It is a unique
#: sentinel so that any application value — including ``None`` — can be
#: proposed.
BOTTOM = type("Bottom", (), {
    "__repr__": lambda self: "⊥",
    "__reduce__": lambda self: (_get_bottom, ()),
})()


def _get_bottom() -> object:
    """Support pickling of the :data:`BOTTOM` singleton."""
    return BOTTOM


_Record = TypeVar("_Record", bound=type)


def slot_init(cls: _Record) -> _Record:
    """Give a frozen, slotted dataclass an ``__init__`` that fills each slot
    through its member descriptor.

    A generated frozen ``__init__`` calls ``object.__setattr__`` once per
    field, which resolves to the slot's descriptor on every call; this one
    calls the descriptor's ``__set__`` directly.  Apply it above
    ``@dataclass`` on records built once per routed message.  Everything
    else stays the dataclass's: the same positional/keyword signature,
    still frozen (assignment raises ``FrozenInstanceError``), and the same
    eq, hash, repr, ``__match_args__`` and pickling.  Fields may not have
    defaults.
    """
    names = []
    setters = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"slot_init: {cls.__qualname__}.{f.name} has a default")
        names.append(f.name)
        setters[f"_set_{f.name}"] = getattr(cls, f.name).__set__
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    source = f"def __init__(self, {', '.join(names)}):\n{body}"
    namespace: dict = {}
    # a file name of its own, so a profile tells the records apart
    exec(compile(source, f"<slot_init {cls.__qualname__}>", "exec"), setters, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def order_key(value: Value) -> tuple[str, str]:
    """A total-order key that works across heterogeneous value types.

    The paper assumes ``V`` is an ordered set.  Correct processes propose
    comparable values, but Byzantine processes can inject values of any
    type into views and quorums; tie-breaking must still be deterministic
    (agreement depends on every correct process breaking ties identically
    over identical data).  Sorting by ``(type name, repr)`` is total and
    identical everywhere.
    """
    return (type(value).__name__, repr(value))


def largest(values) -> Value:
    """``max`` under the native order when possible, else :func:`order_key`.

    Native comparison keeps the intuitive semantics for homogeneous values
    (the common case); the fallback keeps Byzantine-mixed value sets from
    crashing a correct process with ``TypeError``.
    """
    vals = list(values)
    if not vals:
        raise ValueError("largest() of an empty collection")
    try:
        return max(vals)
    except TypeError:
        return max(vals, key=order_key)


def percentile(values, q: float) -> float | None:
    """The nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``;
    ``None`` when there are none — an empty sample has no quantile."""
    if not values:
        return None
    ordered = sorted(values)
    return float(ordered[min(int(q * len(ordered)), len(ordered) - 1)])


class DecisionKind(enum.Enum):
    """How a process reached its decision (Figure 1 of the paper)."""

    #: Line 8 — `P1(J1)` held over a view of ``n-t`` plain messages.
    ONE_STEP = "one-step"
    #: Line 17 — `P2(J2)` held over a view of ``n-t`` identical-broadcast
    #: deliveries.
    TWO_STEP = "two-step"
    #: Line 21 — the decision was borrowed from the underlying consensus.
    UNDERLYING = "underlying"
    #: Used by baseline algorithms whose single fast path is not split into
    #: one- and two-step variants (e.g. BOSCO's fast decision).
    FAST = "fast"

    @property
    def is_expedited(self) -> bool:
        """True when the decision came from a fast path, not the fallback."""
        return self is not DecisionKind.UNDERLYING


@dataclass(frozen=True, slots=True)
class Decision:
    """The outcome of one consensus instance at one process.

    Attributes:
        value: the decided value.
        kind: which decision path fired.
        step: causal communication depth at the moment of decision. The
            underlying-consensus path reports the depth of the message that
            carried the decision.
        time: simulated (or wall-clock) time of the decision; ``0.0`` when
            the runtime does not track time.
    """

    value: Value
    kind: DecisionKind
    step: StepCount
    time: float = 0.0


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Static parameters of one consensus deployment.

    Attributes:
        n: total number of processes (the paper's ``n``).
        t: upper bound on the number of Byzantine processes (``t``),
            known to every process in advance.
    """

    n: int
    t: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.t < 0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        if self.t >= self.n:
            raise ValueError(f"t must be smaller than n, got n={self.n}, t={self.t}")

    @property
    def processes(self) -> range:
        """All process identifiers, ``0 .. n-1``."""
        return range(self.n)

    @property
    def quorum(self) -> int:
        """The ``n - t`` threshold used throughout the paper."""
        return self.n - self.t

    def satisfies(self, bound_multiplier: int) -> bool:
        """Check ``n > bound_multiplier * t`` (e.g. ``satisfies(5)`` ⇔ n>5t)."""
        return self.n > bound_multiplier * self.t


@dataclass(slots=True)
class RunStats:
    """Aggregate counters filled in by a runtime while a protocol executes.

    Every engine produces one :class:`RunStats` per run (``decisions`` and
    ``end_time`` mirror the :class:`~repro.engine.run.RunResult` carrying
    it), which the metrics layer consumes.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    decisions: dict[ProcessId, Decision] = field(default_factory=dict)
    end_time: float = 0.0

    def record_decision(self, pid: ProcessId, decision: Decision) -> None:
        """Store the first decision of ``pid``; later ones are ignored."""
        self.decisions.setdefault(pid, decision)

    @property
    def max_decision_step(self) -> StepCount:
        """Largest decision depth among processes that decided."""
        if not self.decisions:
            return 0
        return max(d.step for d in self.decisions.values())

    @property
    def decided_values(self) -> set[Value]:
        """The set of distinct decided values (must be a singleton)."""
        return {d.value for d in self.decisions.values()}
