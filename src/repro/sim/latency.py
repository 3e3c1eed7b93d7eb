"""Message latency models.

The paper assumes a fully asynchronous network: no bound on delivery time.
A simulator nevertheless has to pick *some* delay for every message; the
models here span the spectrum used by the benchmarks — from a constant
(synchronous-looking) network to heavy-tailed delays that exercise the
interleavings where fast paths fail.

All models draw from the :class:`random.Random` instance passed in by the
simulation, never from global state, so runs stay reproducible.
"""

from __future__ import annotations

import abc
import random

from ..types import ProcessId


class LatencyModel(abc.ABC):
    """Strategy object producing a one-way delay for each message."""

    @abc.abstractmethod
    def sample(self, rng: random.Random, src: ProcessId, dst: ProcessId) -> float:
        """The delay for one message from ``src`` to ``dst``."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units.

    With constant latency the execution looks lock-step synchronous —
    convenient for asserting exact step counts.
    """

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay

    def sample(self, rng: random.Random, src: ProcessId, dst: ProcessId) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]`` — the default model."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: ProcessId, dst: ProcessId) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialLatency(LatencyModel):
    """Heavy-tailed delays: ``base + Exp(mean)``.

    Occasional stragglers make ``n - t`` quorums form without the slowest
    processes, which is exactly the regime where adaptive conditions pay off.
    """

    def __init__(self, base: float = 0.1, mean: float = 1.0) -> None:
        if base < 0 or mean <= 0:
            raise ValueError("base must be >= 0 and mean > 0")
        self.base = base
        self.mean = mean

    def sample(self, rng: random.Random, src: ProcessId, dst: ProcessId) -> float:
        return self.base + rng.expovariate(1.0 / self.mean)


class PerLinkLatency(LatencyModel):
    """A fixed per-link delay matrix with optional jitter.

    Models clustered deployments (fast intra-site, slow cross-site links).

    Args:
        matrix: ``matrix[src][dst]`` base delay.
        jitter: uniform jitter added on top, in ``[0, jitter]``.
    """

    def __init__(self, matrix: list[list[float]], jitter: float = 0.0) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.matrix = matrix
        self.jitter = jitter

    def sample(self, rng: random.Random, src: ProcessId, dst: ProcessId) -> float:
        base = self.matrix[src][dst]
        if self.jitter:
            return base + rng.uniform(0.0, self.jitter)
        return base
