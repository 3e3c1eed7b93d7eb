"""Seeded load generation against the frontend: the saturation experiment.

Two canonical client models drive :class:`~repro.frontend.api.Frontend`:

* **open loop** — arrivals are a Poisson process at ``offered`` commands
  per slot tick, independent of service progress (the model under which
  the classic saturation curve is defined: past capacity the queues grow,
  latency goes super-linear, and the shed rate turns positive);
* **closed loop** — a fixed window of ``clients`` keeps that many
  submissions outstanding and each client only re-submits after its slot
  is freed, so offered load self-paces to capacity and nothing sheds —
  the comparison mode E22 plots against the open loop.

Everything derives from ``random.Random`` seeded by pure integer
arithmetic (no string hashing), so the same seed produces the identical
arrival stream — and therefore identical accepted/shed counts and
digests — on every run of the sim engine.

:func:`saturation_sweep` runs one open-loop cell per offered load over
fresh service/frontend pairs and emits flat row dicts (client p50/p99,
throughput, shed rate, queue high-water, consensus-side latencies, digest
checksum) — the data behind the E22 table
(``benchmarks/test_e22_frontend.py``).
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from ..shard.service import SKEWS, ShardedService
from .api import Frontend, FrontendReport

__all__ = [
    "poisson",
    "KeyPicker",
    "LoadGenerator",
    "saturation_sweep",
]


def poisson(rng: random.Random, lam: float) -> int:
    """One Poisson(``lam``) draw (Knuth's product-of-uniforms method —
    exact, dependency-free, and fast enough for per-tick rates)."""
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class KeyPicker:
    """Seeded key chooser mirroring :func:`~repro.shard.service.
    shard_workload`'s skew models (``uniform`` / ``zipf``)."""

    def __init__(
        self,
        rng: random.Random,
        keyspace: int = 32,
        skew: str = "uniform",
        zipf_alpha: float = 1.2,
    ) -> None:
        if keyspace < 1:
            raise ConfigurationError("need at least one key")
        if skew not in SKEWS:
            raise ConfigurationError(
                f"unknown skew {skew!r} (one of: {', '.join(SKEWS)})"
            )
        self.rng = rng
        self.keys = [f"k{i}" for i in range(keyspace)]
        self.weights = (
            [1.0 / (rank + 1) ** zipf_alpha for rank in range(keyspace)]
            if skew == "zipf"
            else None
        )

    def pick(self) -> str:
        if self.weights is None:
            return self.keys[self.rng.randrange(len(self.keys))]
        return self.rng.choices(self.keys, self.weights)[0]


class LoadGenerator:
    """Seeded client-model driver.

    Args:
        keyspace, skew, zipf_alpha: key distribution (as in the shard
            workload generator).
        seed: master seed; each cell derives its own PRNG from
            ``(seed, cell parameters)`` by integer arithmetic, so sweeps
            are reproducible cell by cell.
    """

    def __init__(
        self,
        keyspace: int = 32,
        skew: str = "uniform",
        zipf_alpha: float = 1.2,
        seed: int = 0,
    ) -> None:
        self.keyspace = keyspace
        self.skew = skew
        self.zipf_alpha = zipf_alpha
        self.seed = seed

    def _picker(self, salt: int) -> KeyPicker:
        rng = random.Random((self.seed + 1) * 1_000_003 + salt)
        return KeyPicker(rng, self.keyspace, self.skew, self.zipf_alpha)

    def open_loop(
        self,
        frontend: Frontend,
        offered: float,
        ticks: int,
        timeout: float = 30.0,
    ) -> FrontendReport:
        """Poisson arrivals at ``offered`` commands per tick for ``ticks``
        ticks, then run the accepted stream through consensus."""
        if offered < 0.0:
            raise ConfigurationError("offered load must be non-negative")
        if ticks < 1:
            raise ConfigurationError("need at least one tick")
        salt = int(offered * 1_000) * 31 + ticks
        picker = self._picker(salt)
        arrivals = random.Random((self.seed + 1) * 999_983 + salt)
        for _ in range(ticks):
            for _ in range(poisson(arrivals, offered)):
                frontend.submit(picker.pick())
            frontend.tick()
        return frontend.run(timeout=timeout)

    def closed_loop(
        self,
        frontend: Frontend,
        clients: int,
        total: int,
        timeout: float = 30.0,
    ) -> FrontendReport:
        """A window of ``clients`` outstanding submissions, re-filled as
        the queues drain, until ``total`` commands were submitted — load
        self-paces to capacity, so nothing sheds (size the queue bound to
        at least the window)."""
        if clients < 1:
            raise ConfigurationError("need at least one client")
        if total < 0:
            raise ConfigurationError("total must be non-negative")
        picker = self._picker(clients * 31 + total)
        remaining = total
        while remaining or any(q.pending for q in frontend.queues.values()):
            outstanding = sum(q.pending for q in frontend.queues.values())
            while remaining and outstanding < clients:
                frontend.submit(picker.pick())
                remaining -= 1
                outstanding += 1
            frontend.tick()
        return frontend.run(timeout=timeout)


def digest_checksum(report: FrontendReport) -> int:
    """CRC-32 of the agreed digest — a compact determinism witness (same
    seed ⇒ same checksum) that is stable across processes (tuple ``repr``,
    no string hashing)."""
    if report.shard is None or report.shard.digest is None:
        return 0
    return zlib.crc32(repr(report.shard.digest).encode("ascii"))


def saturation_sweep(
    service_factory: Callable[[], ShardedService],
    offered_loads: Sequence[float],
    ticks: int = 32,
    queue_bound: int = 16,
    policy: str = "shed",
    deadline: int | None = None,
    keyspace: int = 32,
    skew: str = "uniform",
    zipf_alpha: float = 1.2,
    seed: int = 0,
    timeout: float = 30.0,
) -> list[dict[str, Any]]:
    """One open-loop cell per offered load, each over a fresh service.

    Returns flat row dicts: the frontend summary (client p50/p99 in slot
    ticks, shed rate, throughput plateau, queue high-water) joined with
    the consensus-side aggregate latencies and a digest checksum.
    """
    generator = LoadGenerator(
        keyspace=keyspace, skew=skew, zipf_alpha=zipf_alpha, seed=seed
    )
    rows: list[dict[str, Any]] = []
    for offered in offered_loads:
        frontend = Frontend(
            service_factory(),
            queue_bound=queue_bound,
            policy=policy,
            deadline=deadline,
        )
        report = generator.open_loop(frontend, offered, ticks, timeout=timeout)
        aggregate = report.shard.aggregate if report.shard else {}
        rows.append(
            {
                "offered_per_tick": offered,
                **report.summary(),
                "consensus_p50_latency": aggregate.get("p50_decision_latency_s"),
                "consensus_p99_latency": aggregate.get("p99_decision_latency_s"),
                "one_step_frac": aggregate.get("one_step_frac"),
                "divergence": bool(report.shard.divergence) if report.shard else None,
                "digest_crc32": digest_checksum(report),
            }
        )
    return rows
