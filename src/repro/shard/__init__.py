"""``repro.shard`` — the keyspace-sharded multi-consensus service.

The paper's replicated-server motivation at "heavy traffic" scale: the
keyspace is split into shards, each shard orders batched client commands
through consecutive consensus instances of one algorithm (DEX-freq by
default; ``ShardedService(algorithm=...)`` takes any registered spec), and
all instances of all shards multiplex over one engine — on the socket
engine, one hub connection per node carries every instance's frames.

* :mod:`repro.shard.router` — key→shard mapping + the ``(shard, slot)``
  instance multiplexer;
* :mod:`repro.shard.batcher` — per-shard size/time-bounded batching with
  loser re-proposal;
* :mod:`repro.shard.service` — :class:`ShardedService` frontend, seeded
  client streams (uniform/zipf skew, open/closed loop), per-shard stores
  and the cross-shard divergence check;
* :mod:`repro.shard.metrics` — per-shard and aggregate throughput /
  latency / one-step-rate folded from the typed event stream.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".batcher": ("ShardBatcher",),
        ".metrics": ("ShardStreamSink", "step_of_kind"),
        ".router": (
            "INSTANCE_DECIDED_TAG",
            "ShardMultiplexer",
            "instance_name",
            "parse_instance",
            "shard_of",
        ),
        ".service": (
            "Command",
            "KeyValueStore",
            "ShardedService",
            "ShardNode",
            "ShardReport",
            "instance_factory",
            "shard_workload",
        ),
    },
)
