"""Instance lifecycle: a decided DEX instance retires once it is inert.

Three claims, each checked against a *reference* multiplexer whose
``_sweep`` is a no-op (so every instance lives for the whole run, as it did
before retirement existed):

* **equivalence** — retirement changes no message: seeded ``sim`` runs of
  the sharded service, batched and as the pipelined log (one command a
  slot), produce the same event stream, event for event, healthy and
  under each fault flavour;
* **no resurrection** — a late message for a retired instance is dropped
  before the multiplexer could re-create the instance;
* **the bound** — on a healthy run a replica's live instances do not grow
  with the run's length, and an accepted origin keeps no witness book.
"""

from collections import Counter

import pytest

from repro.broadcast.idb import IdbEcho, IdbInit
from repro.byzantine.adversary import MutatingBehavior
from repro.byzantine.behaviors import RandomGarbageBehavior, split_mutator
from repro.core.dex import DexProposal
from repro.durable import DurabilityConfig
from repro.engine.events import EventLog, LogEvent, SendEvent
from repro.engine.faults import Crash, CrashRecover, Custom, Silent
from repro.errors import ConfigurationError
from repro.harness import dex_freq
from repro.runtime.composite import Envelope
from repro.runtime.effects import Broadcast
from repro.shard import service as shard_service
from repro.shard.router import ShardMultiplexer, instance_name
from repro.shard.service import ShardedService, ShardNode, instance_factory, shard_workload
from repro.types import SystemConfig
from repro.underlying.oracle import OracleDecision

from .test_net_engine import assert_no_leaks

SEEDS = range(20)
BATCH_A = (("set", "evil", 1),)
BATCH_B = (("set", "evil", 2),)


# -- the reference: nothing ever retires ------------------------------------------------


class EternalNode(ShardNode):
    def _sweep(self, shard):
        pass


def stream(log: EventLog) -> list[tuple]:
    """The recorded events as comparable tuples: type, then every field."""
    return [
        (type(e).__name__, *(getattr(e, name) for name in e.__match_args__))
        for e in log.events
    ]


def retired(node: ShardMultiplexer) -> int:
    return sum(
        instance_name(*key) not in node._children for key in node.decided
    )


# -- fault flavours -----------------------------------------------------------------------


def equivocator(inner):
    """The Figure-2 attack at every layer: even destinations are shown one
    batch, odd ones another — in the proposal, the ``init`` *and* every
    echo this replica sends for anybody's broadcast."""
    return MutatingBehavior(inner, split_mutator(BATCH_A, BATCH_B))


def garbage(pid, config, seed):
    """Well-typed protocol messages with random values, to random replicas,
    for instances old and new — late ``P-Send``s, ``init``s and echoes
    (some for an origin that is no process) reaching real handlers."""
    templates = [
        Envelope(instance_name(shard, slot), payload)
        for shard in range(2)
        for slot in (0, 1, 3)
        for payload in (
            DexProposal(0),
            Envelope("idb", IdbInit(0)),
            Envelope("idb", IdbEcho(0, 2)),
            Envelope("idb", IdbEcho(0, 99)),
        )
    ]
    return RandomGarbageBehavior(
        pid, config, templates, [BATCH_A, BATCH_B, ()], fanout=3, seed=seed
    )


SERVICE_FAULTS = {
    "healthy": lambda seed: None,
    "crash": lambda seed: {3: Crash(150)},
    "equivocator": lambda seed: {
        6: Custom(lambda pid, config, make_honest, value: equivocator(make_honest(value)))
    },
    "garbage": lambda seed: {
        6: Custom(lambda pid, config, make_honest, value: garbage(pid, config, seed))
    },
    "crash-recover": lambda seed: {2: CrashRecover(at=1.5, restart_after=1.0)},
}


#: the pipelined log: three slots in flight, one command a slot
PIPELINED = {"shards": 3, "max_batch": 1}


def run_service(
    monkeypatch, node_class, flavour, seed, root, engine="sim", count=40, shards=2, max_batch=4
):
    """One seeded sharded-service run with ``node_class`` replicas; returns
    ``(report, event log, honest nodes)``."""
    monkeypatch.setattr(shard_service, "ShardNode", node_class)
    log = EventLog()
    service = ShardedService(
        n=7,
        shards=shards,
        max_batch=max_batch,
        seed=seed,
        contention=0.3,
        engine=engine,
        faults=SERVICE_FAULTS[flavour](seed),
        event_sink=log,
        durability=(
            DurabilityConfig(str(root), snapshot_every=2)
            if flavour == "crash-recover"
            else None
        ),
    )
    arrivals = shard_workload(count, seed=seed)
    nodes: list[ShardNode] = []
    make_node = service._make_node

    def recording(pid, arrivals):
        nodes.append(make_node(pid, arrivals))
        return nodes[-1]

    service._make_node = recording
    return service.run_stream(arrivals, timeout=45.0), log, nodes


# -- (1) equivalence ----------------------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("flavour", list(SERVICE_FAULTS))
    def test_sharded_service_event_streams_equal(self, monkeypatch, tmp_path, flavour):
        swept = 0
        for seed in SEEDS:
            runs = {
                cls: run_service(
                    monkeypatch, cls, flavour, seed, tmp_path / f"{cls.__name__}{seed}"
                )
                for cls in (ShardNode, EternalNode)
            }
            report, log, nodes = runs[ShardNode]
            reference, reference_log, eternal = runs[EternalNode]
            assert not report.divergence and report.commands == 40
            assert report.digest == reference.digest is not None
            assert stream(log) == stream(reference_log), (flavour, seed)
            assert not any(retired(node) for node in eternal)
            swept += sum(retired(node) for node in nodes)
        # the comparison is not vacuous: instances did retire on these runs
        assert swept > 0, flavour

    @pytest.mark.parametrize("flavour", ["healthy", "crash", "equivocator", "garbage"])
    def test_pipelined_log_event_streams_equal(self, monkeypatch, tmp_path, flavour):
        swept = 0
        for seed in SEEDS:
            runs = {
                cls: run_service(
                    monkeypatch, cls, flavour, seed, tmp_path, count=12, **PIPELINED
                )
                for cls in (ShardNode, EternalNode)
            }
            report, log, nodes = runs[ShardNode]
            reference, reference_log, eternal = runs[EternalNode]
            assert not report.divergence and report.commands == report.slots == 12
            assert report.digest == reference.digest is not None
            assert stream(log) == stream(reference_log), (flavour, seed)
            assert not any(retired(node) for node in eternal)
            swept += sum(retired(node) for node in nodes)
        assert swept > 0, flavour

    @staticmethod
    def _most_broadcasts(log: EventLog) -> int:
        """The most broadcast frames one replica sent for one instance (a
        net run ends at the seventh digest, so the trailing echoes of the
        last slots race the shutdown: only this ceiling is exact)."""
        spans = {id(send.raw): send for send in log.of_type(SendEvent)}
        census = Counter((send.pid, send.payload.component) for send in spans.values())
        return max(census.values())

    @pytest.mark.net
    def test_sharded_service_on_sockets(self, monkeypatch, tmp_path):
        """Same digest both ways, and no replica sends for an instance more
        than the nine broadcasts of one life (proposal, init, one echo per
        origin): a resurrected instance would echo a second time.  How many
        of the nine a replica sent before the run ended is a race, so the
        count is a ceiling."""
        digests = {}
        for cls in (ShardNode, EternalNode):
            report, log, _ = run_service(
                monkeypatch, cls, "healthy", 5, tmp_path, engine="net", count=48
            )
            assert not report.divergence and report.commands == 48
            digests[cls] = report.digest
            assert self._most_broadcasts(log) <= 9
            assert not [e for e in log.of_type(LogEvent) if e.event == "unknown-component"]
        assert digests[ShardNode] == digests[EternalNode]
        assert_no_leaks()


    @pytest.mark.net
    def test_pipelined_log_on_sockets(self, monkeypatch, tmp_path):
        applied = {}
        for cls in (ShardNode, EternalNode):
            report, log, _ = run_service(
                monkeypatch, cls, "healthy", 4, tmp_path, engine="net", count=12, **PIPELINED
            )
            assert not report.divergence and report.commands == report.slots == 12
            # which of a contended slot's rivals wins is a race on sockets
            # (the log's length and contents are not)
            applied[cls] = sorted(
                command for _, batches in report.digest for batch in batches for command in batch
            )
            assert self._most_broadcasts(log) <= 9
        assert applied[ShardNode] == applied[EternalNode]
        assert_no_leaks()


# -- (2) no resurrection ------------------------------------------------------------------


def late_messages(shard, slot):
    """One of each protocol message an instance can still receive after it
    has decided: a ``P-Send``, an ``init``, an echo, the UC announcement."""
    return [
        DexProposal(BATCH_A),
        Envelope("idb", IdbInit(BATCH_A)),
        Envelope("idb", IdbEcho(BATCH_A, 2)),
        Envelope("uc", OracleDecision((shard, slot), BATCH_A)),
    ]


def settled_node(monkeypatch, tmp_path):
    """A replica after a healthy 40-command run, and one of its retired
    instances."""
    _, _, nodes = run_service(monkeypatch, ShardNode, "healthy", 3, tmp_path)
    node = nodes[0]
    key = next(k for k in node.decided if instance_name(*k) not in node._children)
    return node, key


class TestNoResurrection:
    def test_late_messages_for_a_retired_instance_are_dropped(self, monkeypatch, tmp_path):
        node, (shard, slot) = settled_node(monkeypatch, tmp_path)
        name = instance_name(shard, slot)
        children = dict(node._children)
        for payload in late_messages(shard, slot):
            for sender in range(7):
                assert node.on_message(sender, Envelope(name, payload)) == []
        assert node._children == children
        # an instance nobody has seen is still created on first contact
        fresh = instance_name(shard, 500)
        effects = node.on_message(1, Envelope(fresh, Envelope("idb", IdbInit(BATCH_A))))
        assert fresh in node._children
        assert [type(e) for e in effects] == [Broadcast]

    def test_the_reference_answers_the_same_messages_with_nothing(self, monkeypatch, tmp_path):
        """What makes retirement exact: the live instance the reference
        keeps returns ``[]`` for every late protocol message too."""
        _, _, nodes = run_service(monkeypatch, EternalNode, "healthy", 3, tmp_path)
        node = nodes[0]
        for (shard, slot), _ in list(node.decided.items()):
            child = node._children[instance_name(shard, slot)]
            if not child.inert:
                continue
            for payload in late_messages(shard, slot):
                for sender in range(7):
                    envelope = Envelope(instance_name(shard, slot), payload)
                    assert node.on_message(sender, envelope) == []

    def test_junk_for_a_retired_instance_loses_only_its_diagnostic(self, monkeypatch, tmp_path):
        """The one observable difference, and only a Byzantine sender can
        provoke it: a payload no handler understands is *logged* by a live
        instance (``dex-ignored``) and dropped in silence once retired."""
        node, key = settled_node(monkeypatch, tmp_path)
        assert node.on_message(6, Envelope(instance_name(*key), "junk")) == []
        live = next(iter(node._children))
        (log,) = node.on_message(6, Envelope(live, "junk"))
        assert log.event == "dex-ignored"

    def test_a_passive_instance_is_pinned_until_it_proposes(self):
        """A replica that has not opened a slot has sent no ``init``, so
        nobody — itself included — has echoed for its origin: the instance
        is not inert however long ago it decided."""
        config = SystemConfig(7, 1)
        mux = ShardMultiplexer(0, config, instance_factory(dex_freq(), 0, config), shards=1)
        name = instance_name(0, 0)
        for sender in range(1, 7):
            mux.on_message(sender, Envelope(name, DexProposal("v")))
        assert (0, 0) in mux.decided
        assert name in mux._children and not mux.child(name).inert


# -- (3) the bound ------------------------------------------------------------------------


class PeakNode(ShardNode):
    """Records the most children this replica ever held at once."""

    peak = 0

    def add_child(self, name, child):
        child = super().add_child(name, child)
        self.peak = max(self.peak, len(self._children))
        return child


def run_plain(monkeypatch, count, shards=4, faults=None):
    monkeypatch.setattr(shard_service, "ShardNode", PeakNode)
    service = ShardedService(n=7, shards=shards, seed=5, faults=faults)
    deployment = service.deployment(shard_workload(count, seed=5), None)
    result = deployment.run("sim")
    assert result.agreement_holds() and not result.undecided_correct
    slots = sum(len(batches) for _, batches in result.decided_value)
    nodes = [p for p in deployment.protocols.values() if isinstance(p, PeakNode)]
    return slots, nodes


class TestTheBound:
    @pytest.mark.parametrize("count", [256, 1024])
    def test_live_instances_do_not_grow_with_the_run(self, monkeypatch, count):
        shards = 4
        slots, nodes = run_plain(monkeypatch, count, shards)
        assert slots > count // 4
        assert len(nodes) == 7
        for node in nodes:
            assert node.peak <= shards * 4
            for child in node._children.values():
                idb = child.child("idb")
                # no witness book outlives its origin's accept
                assert not set(idb._witnesses) & idb._accepted

    def test_a_silent_replica_pins_every_instance(self, monkeypatch):
        """Replica 6 never sends an ``init``, so no correct replica ever
        echoes for origin 6 and no instance's IDB reaches "every origin
        echoed": nothing is inert, nothing retires.  This is the stated
        limit, no worse than before retirement existed — retiring on
        *accepts* instead would free these instances, but an instance that
        has accepted ``n - t`` origins still owes the system its echo of a
        slow origin's ``init``, and dropping that echo is a behaviour
        change (it would need a horizon justified by catch-up)."""
        slots, nodes = run_plain(monkeypatch, 256, faults={6: Silent()})
        assert len(nodes) == 6
        for node in nodes:
            assert len(node._children) == node.peak == slots
            assert retired(node) == 0


# -- the slot ceiling ---------------------------------------------------------------------


def test_propose_at_the_slot_ceiling_raises():
    """Peers refuse envelopes at ``slot >= max_slots``, so an instance
    opened there could never decide: refuse to open it, naming the shard,
    the slot and the ceiling."""
    config = SystemConfig(7, 1)
    mux = ShardMultiplexer(
        0, config, instance_factory(dex_freq(), 0, config), shards=2, max_slots=3
    )
    for slot in range(3):
        assert mux.propose(1, slot, "v")
    with pytest.raises(ConfigurationError, match=r"shard 1 .*slot 3.*max_slots=3"):
        mux.propose(1, 3, "v")
    assert instance_name(1, 3) not in mux._children
    assert (1, 3) not in mux._proposed
