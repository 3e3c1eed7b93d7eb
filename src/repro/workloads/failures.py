"""Failure patterns: which processes fail (the caller says how).

Produces the ``faults`` mapping consumed by
:class:`repro.harness.Scenario` and validated by the
:class:`~repro.engine.faults.FaultPlane`.  Patterns are seeded so sweeps
over the actual failure count ``f`` (the paper's adaptiveness axis) are
reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ..engine.faults import Fault
from ..types import ProcessId


class FailureSweep:
    """Enumerate failure patterns of increasing size ``f = 0 .. t``.

    By default faulty ids are drawn from the *end* of the id space (the
    highest ids), which composes neatly with input generators that place
    contending values at the end; ``randomize=True`` samples the faulty
    set uniformly instead.
    """

    def __init__(self, n: int, t: int, randomize: bool = False, seed: int = 0) -> None:
        if t >= n:
            raise ValueError("t must be smaller than n")
        self.n = n
        self.t = t
        self.randomize = randomize
        self._rng = random.Random(seed)

    def faulty_ids(self, f: int) -> list[ProcessId]:
        """Pick ``f`` faulty process ids."""
        if not 0 <= f <= self.t:
            raise ValueError(f"f must be in [0, {self.t}], got {f}")
        if self.randomize:
            return sorted(self._rng.sample(range(self.n), f))
        return list(range(self.n - f, self.n))

    def patterns(
        self, make_fault, f_values: Sequence[int] | None = None
    ) -> list[tuple[int, dict[ProcessId, Fault]]]:
        """``(f, faults)`` pairs for each requested failure count.

        Args:
            make_fault: ``(pid) -> Fault`` constructor.
            f_values: failure counts to produce; default ``0 .. t``.
        """
        fs = list(f_values) if f_values is not None else list(range(self.t + 1))
        out = []
        for f in fs:
            out.append((f, {pid: make_fault(pid) for pid in self.faulty_ids(f)}))
        return out
