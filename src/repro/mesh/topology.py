"""Mesh topology configuration and the shard→hub routing contract.

A mesh run splits the star topology's single hub into *hub groups*: hub 0
stays inside the orchestrator (all control traffic — decisions, service
calls, logs, catch-up — lands there), while hubs ``1..hubs-1`` are forked
worker processes that each own a slice of the shard space.  Everything
that must agree across nodes, hubs and metrics lives here:

* :class:`MeshTopology` — the user-facing config surfaced through
  ``Scenario(mesh=...)`` / ``ShardedService(mesh=...)`` / ``run --hubs N``;
* :func:`hub_rng` — per-hub seeded RNG streams, so jitter and link-fault
  draws stay bit-identical run to run *per hub* regardless of arrival
  interleaving across hubs (and hub 0's stream equals the star hub's,
  keeping single-hub digests unchanged);
* :func:`~repro.shard.router.shard_of_payload` / :func:`~repro.shard.
  router.peek_shard` — shard attribution for a materialized envelope chain
  and for a raw binary-codec span, so a data hub can steer a frame without
  decoding its payload.  They live in :mod:`repro.shard.router` beside
  ``hub_of`` (the metrics layer charges by the same function) and are
  re-exported here under their old names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..errors import SimulationError
from ..shard.router import UNATTRIBUTED, peek_shard, shard_of_payload

__all__ = [
    "UNATTRIBUTED",
    "MeshTopology",
    "hub_rng",
    "shard_of_payload",
    "peek_shard",
]

@dataclass(frozen=True)
class MeshTopology:
    """Parallel-hub layout for the socket engine.

    Args:
        hubs: number of hub groups.  ``1`` degenerates to the star
            topology (no hub workers are forked); with more, each node
            steers a data frame to the hub owning its shard.
        remote: hub index → ``(host, port)`` for hubs served by a separate
            process/host (started with ``repro hub`` — see
            :func:`repro.mesh.hub.serve_hub`).  The orchestrator dials
            these over TCP instead of forking them; hub 0 can never be
            remote (it *is* the orchestrator).
        high_water: per-hub ready-queue saturation watermark (see
            :class:`~repro.engine.events.HubSaturatedEvent`).
    """

    hubs: int = 1
    remote: dict[int, tuple[str, int]] = field(default_factory=dict)
    high_water: int = 512

    def __post_init__(self) -> None:
        if self.hubs < 1:
            raise SimulationError("a mesh needs at least one hub group")
        for hub in self.remote:
            if not 1 <= hub < self.hubs:
                raise SimulationError(
                    f"remote hub index {hub} out of range [1, {self.hubs})"
                    " — hub 0 is the orchestrator and cannot be remote"
                )
        if self.high_water < 1:
            raise SimulationError("high_water must be positive")


def hub_rng(seed: int, hub: int) -> Random:
    """The seeded RNG stream of one hub.

    Hub 0's stream is exactly ``Random(seed)`` — the star hub's stream —
    so a one-hub mesh (and hub 0 of any mesh) draws the identical jitter
    sequence as a plain net run and digests stay comparable.  Other hubs
    get independent streams derived from the seed and their index, so a
    multi-hub run is deterministic per hub no matter how frame arrivals
    interleave across hubs.
    """
    if hub == 0:
        return Random(seed)
    return Random((seed + 1) * 1_000_003 + hub)
