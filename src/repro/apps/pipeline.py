"""Pipelined repeated consensus: many DEX instances over one network.

:class:`~repro.apps.rsm.ReplicatedStateMachine` runs one simulation per
slot — simple, but it serialises slots and hides pipelining effects.  This
module runs an unbounded sequence of consensus instances inside a *single*
simulation: :class:`PipelinedReplica` is the one-shard case of
:class:`~repro.shard.router.ShardMultiplexer` (children ``s0.<slot>``,
created lazily on first use — including on the first *message* for a slot
this process has not reached yet, so fast replicas never outrun slow ones'
ability to participate) that keeps a window of ``W`` slots in flight: slot
``k + W`` is proposed as soon as slot ``k`` decides.  With ``W = 1`` this
is sequential repeated consensus; larger windows overlap instances exactly
like a production replicated log does.

The per-slot decisions surface as ``Deliver(tag="slot-decided",
value=(slot, value, kind))`` runner outputs (timestamped in the trace),
and the replica emits its single ``Decide`` when the whole log is ordered,
which is the run's stop condition.  :func:`run_pipelined` wires a full
deployment and checks that all correct replicas ordered the *same log*.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..engine.run import RunResult
from ..errors import ConfigurationError
from ..runtime.effects import Decide, Deliver, Effect
from ..shard.router import ShardInstanceFactory, ShardMultiplexer, dex_shard_factory
from ..sim.runner import Simulation
from ..types import DecisionKind, ProcessId, SystemConfig, Value
from ..underlying.oracle import OracleService

SLOT_DECIDED_TAG = "slot-decided"


class PipelinedReplica(ShardMultiplexer):
    """A log replica keeping ``window`` consensus slots in flight.

    Args:
        process_id: replica id.
        config: system parameters.
        proposals: this replica's proposal per slot (the workload).
        make_instance: per-``(shard, slot)`` consensus factory (the log is
            shard 0).
        window: number of concurrently open slots (``>= 1``).
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        proposals: Sequence[Value],
        make_instance: ShardInstanceFactory,
        window: int = 4,
    ) -> None:
        if window < 1:
            raise ConfigurationError("window must be at least 1")
        if not proposals:
            raise ConfigurationError("need at least one slot proposal")
        # Slots past the log's end do not exist: ``decided`` holds log slots only.
        super().__init__(
            process_id, config, make_instance, shards=1, max_slots=len(proposals)
        )
        self.proposals = list(proposals)
        self.window = window
        self._next_slot = 0

    @property
    def total_slots(self) -> int:
        return len(self.proposals)

    def _open_slots(self) -> list[Effect]:
        """Propose until ``window`` slots are in flight (or none remain)."""
        effects: list[Effect] = []
        while (
            self._next_slot < self.total_slots
            and self._next_slot - len(self.decided) < self.window
        ):
            slot = self._next_slot
            self._next_slot += 1
            effects.extend(self.propose(0, slot, self.proposals[slot]))
        return effects

    def on_start(self) -> list[Effect]:
        return self._open_slots()

    def on_instance_decided(
        self, shard: int, slot: int, value: Value, kind: DecisionKind
    ) -> list[Effect]:
        effects: list[Effect] = [
            Deliver(SLOT_DECIDED_TAG, self.process_id, (slot, value, kind))
        ]
        effects.extend(self._open_slots())
        if len(self.decided) == self.total_slots:
            ordered = tuple(self.decided[0, s][0] for s in range(self.total_slots))
            effects.append(Decide(ordered, DecisionKind.UNDERLYING))
        return effects


def run_pipelined(
    proposals: Mapping[ProcessId, Sequence[Value]] | Sequence[Sequence[Value]],
    t: int | None = None,
    window: int = 4,
    seed: int = 0,
) -> tuple[RunResult, dict[ProcessId, tuple[Value, ...]]]:
    """Run a pipelined DEX log end to end.

    Args:
        proposals: ``proposals[pid][slot]`` — each replica's proposal per
            slot; all replicas must have the same slot count.
        t: failure bound (default: frequency pair's maximum for this n).
        window: slots kept in flight per replica.
        seed: simulation seed.

    Returns:
        ``(run_result, logs)`` where ``logs[pid]`` is the ordered decided
        log of each replica — identical across correct replicas.
    """
    table = dict(enumerate(proposals)) if not isinstance(proposals, Mapping) else dict(proposals)
    n = len(table)
    slot_counts = {len(v) for v in table.values()}
    if len(slot_counts) != 1:
        raise ConfigurationError("all replicas need the same number of slots")
    if t is None:
        t = max((n - 1) // 6, 0)
    config = SystemConfig(n, t)
    service = OracleService(config)
    protocols = {
        pid: PipelinedReplica(
            pid, config, table[pid], dex_shard_factory(pid, config), window=window
        )
        for pid in config.processes
    }
    sim = Simulation(
        config,
        protocols,
        services={"oracle-uc": service},
        seed=seed,
    )
    result = sim.run_until_decided()
    logs = {
        pid: decision.value for pid, decision in result.correct_decisions.items()
    }
    return result, logs
