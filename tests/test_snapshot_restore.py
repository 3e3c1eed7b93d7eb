"""Conformance tests for the ``Protocol.snapshot()/restore()`` contract.

Every shipped protocol — each registry algorithm's full composition
(including byzantine behavior wrappers and trusted services) plus the
standalone broadcast layers — must satisfy: ``restore(snapshot())`` is a
behavioral no-op, one token supports any number of restores, and replaying
the same deliveries from a restored state reproduces the exact same global
state (verified by canonical fingerprint, which walks the full object
graph)."""

import pytest

from repro.broadcast.bracha import BrachaBroadcast
from repro.broadcast.idb import IdbEcho, IdenticalBroadcast
from repro.harness import (
    Crash,
    Equivocate,
    Scenario,
    all_algorithms,
    dex_freq,
)
from repro.mc.fingerprint import fingerprint
from repro.mc.state import McSystem
from repro.runtime.protocol import Protocol
from repro.types import SystemConfig


def mc_system(scenario: Scenario) -> McSystem:
    return scenario.deployment().build_mc()


def drive(system: McSystem, steps: int) -> None:
    """Deliver FIFO (lowest pending uid) for up to ``steps`` deliveries."""
    for _ in range(steps):
        if not system.pending:
            return
        system.deliver(min(system.pending))


def scenarios():
    """One mid-sized scenario per registry algorithm, with a fault of the
    strongest class its model covers, so the byzantine wrapper protocols
    are snapshotted too."""
    out = []
    for algorithm in all_algorithms():
        n = algorithm.required_ratio + 1
        inputs = [1 if pid % 2 else 2 for pid in range(n)]
        if algorithm.failure_model == "byzantine":
            faults = {n - 1: Equivocate(1, 2)}
        else:
            faults = {n - 1: Crash(2)}
        out.append(
            pytest.param(
                Scenario(algorithm, inputs, faults=faults),
                id=algorithm.name,
            )
        )
    return out


@pytest.mark.parametrize("scenario", scenarios())
def test_registry_algorithm_conformance(scenario):
    system = mc_system(scenario)
    system.start()
    drive(system, 10)

    token = system.snapshot()
    at_snapshot = system.fingerprint()
    moved = bool(system.pending)
    drive(system, 8)
    after_continue = system.fingerprint()
    if moved:
        assert after_continue != at_snapshot  # the drive actually moved

    system.restore(token)
    assert system.fingerprint() == at_snapshot
    drive(system, 8)
    assert system.fingerprint() == after_continue

    # One token survives any number of restores.
    system.restore(token)
    assert system.fingerprint() == at_snapshot


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda pid, config: IdenticalBroadcast(pid, config, initial_value=pid),
            id="idb",
        ),
        pytest.param(
            lambda pid, config: BrachaBroadcast(
                pid, config, initial_value=(pid if pid == 0 else None)
            ),
            id="bracha",
        ),
    ],
)
def test_broadcast_layer_conformance(make):
    config = SystemConfig(5, 1)
    system = McSystem(
        config, {pid: make(pid, config) for pid in config.processes}
    )
    system.start()
    drive(system, 12)
    token = system.snapshot()
    at_snapshot = system.fingerprint()
    drive(system, 12)
    end = system.fingerprint()
    system.restore(token)
    assert system.fingerprint() == at_snapshot
    drive(system, 12)
    assert system.fingerprint() == end


class PlainState(Protocol):
    """Picklable state: the snapshot fast path must return a pickle blob."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.values = {1: [2, 3]}
        self.round = 0

    def on_message(self, sender, payload):
        self.round += 1
        self.values.setdefault(sender, []).append(payload)
        return []


class ClosureState(Protocol):
    """Unpicklable state (a lambda): must fall back to deep copies, and the
    per-class memo must remember the choice."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.fn = lambda x: x + 1
        self.seen = []

    def on_message(self, sender, payload):
        self.seen.append(self.fn(payload))
        return []


class TestSnapshotEncoding:
    def test_picklable_state_uses_pickle(self):
        proto = PlainState(0, SystemConfig(4, 1))
        token = proto.snapshot()
        assert isinstance(token, bytes)
        assert type(proto)._snapshot_picklable is True

    def test_unpicklable_state_falls_back_to_deepcopy(self):
        proto = ClosureState(0, SystemConfig(4, 1))
        proto.on_message(1, 41)
        token = proto.snapshot()
        assert not isinstance(token, bytes)
        assert type(proto)._snapshot_picklable is False
        # The memo short-circuits the pickle attempt on later snapshots.
        assert not isinstance(proto.snapshot(), bytes)

        proto.on_message(1, 1)
        assert proto.seen == [42, 2]
        proto.restore(token)
        assert proto.seen == [42]
        assert proto.fn(1) == 2

    def test_restore_is_behavioral_noop(self):
        proto = PlainState(3, SystemConfig(4, 1))
        proto.on_message(1, "x")
        token = proto.snapshot()
        fp = fingerprint(proto)
        proto.on_message(2, "y")
        assert fingerprint(proto) != fp
        proto.restore(token)
        assert fingerprint(proto) == fp
        assert proto.process_id == 3  # identity fields never clobbered
        assert proto.config.n == 4

    def test_token_is_reusable_and_isolated(self):
        proto = PlainState(0, SystemConfig(4, 1))
        token = proto.snapshot()
        proto.on_message(1, "x")
        proto.restore(token)
        # Mutating the restored state must not corrupt the token.
        proto.values[1].append(99)
        proto.restore(token)
        assert proto.values == {1: [2, 3]}


class TestLifecycleState:
    """The per-origin witness book and the ``inert`` point survive
    ``snapshot()``/``restore()``."""

    def test_witness_book_round_trips(self):
        config = SystemConfig(7, 1)
        node = IdenticalBroadcast(0, config)
        for sender in range(6):
            node.on_message(sender, IdbEcho("a", 1))  # origin 1 accepted
        for sender in range(3):
            node.on_message(sender, IdbEcho("b", 2))
        node.on_message(6, IdbEcho("liar", 2))
        book = {2: {"b": {0, 1, 2}, "liar": {6}}}
        assert node._witnesses == book
        token = node.snapshot()
        for sender in range(3, 6):
            node.on_message(sender, IdbEcho("b", 2))
        assert node._witnesses == {} and node.accepted_origins == {1, 2}
        node.restore(token)
        assert node._witnesses == book and node.accepted_origins == {1}
        # the restored book is a copy: filling it does not touch the token
        for sender in range(3, 6):
            node.on_message(sender, IdbEcho("b", 2))
        node.restore(token)
        assert node._witnesses == book

    def test_restored_to_a_pre_inert_token_is_not_inert(self):
        scenario = Scenario(dex_freq(), [1] * 7, seed=4)
        system = mc_system(scenario)
        system.start()
        dex = system.protocols[0]
        tokens = []
        while system.pending and not dex.inert:
            tokens.append(dex.snapshot())
            system.deliver(min(system.pending))
        assert dex.inert and dex.decided
        after = dex.snapshot()
        dex.restore(tokens[-1])
        assert not dex.inert
        dex.restore(after)
        assert dex.inert
