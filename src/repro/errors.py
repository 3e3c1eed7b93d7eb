"""Exception hierarchy for the DEX reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. Sub-classes distinguish
configuration problems (caught at construction time) from protocol-level
violations (caught while a protocol runs) and harness misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A system or protocol was configured with invalid parameters.

    Typical causes: resilience bound violated (e.g. ``n <= 6t`` for the
    frequency-based DEX instantiation), non-positive process counts, or a
    failure pattern naming more faulty processes than the bound ``t``.
    """


class ResilienceError(ConfigurationError):
    """The ``(n, t)`` pair violates the resilience bound of an algorithm."""

    def __init__(self, algorithm: str, n: int, t: int, bound: str) -> None:
        self.algorithm = algorithm
        self.n = n
        self.t = t
        self.bound = bound
        super().__init__(
            f"{algorithm} requires {bound}; got n={n}, t={t}"
        )


class ProtocolViolation(ReproError):
    """A protocol invariant was broken at run time.

    This signals a bug in the library (or a deliberately mis-configured
    experiment), never a Byzantine process: Byzantine messages are data, and
    handling them must not raise.
    """


class SimulationError(ReproError):
    """The simulation harness was driven into an invalid state."""


class SimulationDeadlock(SimulationError):
    """The event queue drained before every correct process decided.

    Carries the set of undecided correct processes to aid debugging.
    """

    def __init__(self, undecided: frozenset[int]) -> None:
        self.undecided = undecided
        super().__init__(
            "simulation ran out of events before correct processes decided: "
            f"undecided={sorted(undecided)}"
        )


class LegalityError(ReproError):
    """A condition-sequence pair failed one of the legality criteria."""

    def __init__(self, criterion: str, detail: str) -> None:
        self.criterion = criterion
        self.detail = detail
        super().__init__(f"legality criterion {criterion} violated: {detail}")
