"""Records built through their slot descriptors (:func:`repro.types.slot_init`).

Each hot record's constructor sets its slots directly instead of through
``object.__setattr__``.  Checked here against a twin built by
``dataclasses`` alone, same name, fields and flags: the record must stay
frozen and keep the dataclass's eq, hash, repr, ``__match_args__``,
pickling and copying.  Subclasses of the routed types still route, through
the ``isinstance`` fallbacks behind the exact-type checks.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.broadcast.idb import IdbEcho, IdbInit, IdenticalBroadcast
from repro.core.dex import DexProposal
from repro.engine.events import DeliverEvent, SendEvent
from repro.mesh.wire import MsgRelay
from repro.net.wire import (
    MsgBroadcast,
    MsgDecide,
    MsgDeliver,
    MsgDeliverBatch,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
)
from repro.runtime.composite import CompositeProtocol
from repro.runtime.effects import Broadcast, Deliver, Envelope, Send, ServiceCall
from repro.harness import dex_freq
from repro.shard.router import ShardMultiplexer
from repro.shard.service import instance_factory
from repro.types import SystemConfig, slot_init

RECORDS = [Envelope, Send, Broadcast, IdbInit, IdbEcho, DexProposal]
CONFIG = SystemConfig(7, 1)


def twin(cls):
    """``cls`` as ``@dataclass(frozen=True, slots=True)`` alone builds it."""
    bases = tuple(b for b in cls.__bases__ if b is not object)
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) for f in dataclasses.fields(cls)],
        bases=bases,
        frozen=True,
        slots=True,
    )


def args_of(cls, salt: int) -> tuple:
    return tuple(f"{f.name}{salt}" for f in dataclasses.fields(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstTheDataclassTwin:
    def test_the_constructor_is_the_fast_one(self, cls):
        assert cls.__init__.__code__.co_filename == f"<slot_init {cls.__name__}>"
        assert twin(cls).__init__.__code__.co_filename != cls.__init__.__code__.co_filename

    def test_fields_and_signature(self, cls):
        fast, slow = cls(*args_of(cls, 1)), twin(cls)(*args_of(cls, 1))
        names = [f.name for f in dataclasses.fields(cls)]
        assert [getattr(fast, n) for n in names] == [getattr(slow, n) for n in names]
        assert cls(**dict(zip(names, args_of(cls, 1)))) == fast
        assert cls.__match_args__ == twin(cls).__match_args__ == tuple(names)
        assert cls.__slots__ == twin(cls).__slots__
        for wrong in (args_of(cls, 1)[:-1], args_of(cls, 1) + ("extra",)):
            with pytest.raises(TypeError):
                cls(*wrong)

    def test_frozen(self, cls):
        record = cls(*args_of(cls, 1))
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "changed")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)

    def test_eq_hash_repr(self, cls):
        make_twin = twin(cls)
        one, same, other = cls(*args_of(cls, 1)), cls(*args_of(cls, 1)), cls(*args_of(cls, 2))
        assert one == same and one != other and not (one != same)
        assert (make_twin(*args_of(cls, 1)) == make_twin(*args_of(cls, 1))) == (one == same)
        assert hash(one) == hash(same) == hash(make_twin(*args_of(cls, 1)))
        assert repr(one) == repr(make_twin(*args_of(cls, 1)))

    def test_pickle_and_copy(self, cls):
        record = cls(*args_of(cls, 1))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        assert record.__getstate__() == twin(cls)(*args_of(cls, 1)).__getstate__()


class TestMessageEvents:
    @pytest.mark.parametrize("cls", [SendEvent, DeliverEvent], ids=lambda c: c.__name__)
    def test_frozen_with_every_field_set(self, cls):
        event = cls(1.5, 2, 3, "raw", 4)
        assert [getattr(event, n) for n in cls.__match_args__] == [1.5, 2, 3, "raw", 4]
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.pid = 0


#: The wire records built once per frame: a node's sends, the hub's decode of
#: them and its delivery frames, the mesh relay.
WIRE_RECORDS = [
    MsgSend, MsgDeliver, MsgDeliverBatch, MsgDecide, MsgOutput, MsgService, MsgLog,
    MsgBroadcast, MsgRelay,
]


@pytest.mark.parametrize("cls", WIRE_RECORDS, ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "check", sorted(n for n in vars(TestAgainstTheDataclassTwin) if n.startswith("test_"))
)
def test_wire_records_against_the_dataclass_twin(cls, check):
    getattr(TestAgainstTheDataclassTwin(), check)(cls)


def test_a_field_with_a_default_is_refused():
    @dataclasses.dataclass(frozen=True, slots=True)
    class WithDefault:
        a: int
        b: int = 0

    with pytest.raises(TypeError, match="default"):
        slot_init(WithDefault)


# -- subclasses route through the isinstance fallbacks -------------------------------------


class TaggedEnvelope(Envelope):
    __slots__ = ()


class TaggedEcho(IdbEcho):
    __slots__ = ()


class TaggedBroadcast(Broadcast):
    __slots__ = ()


class TaggedSend(Send):
    __slots__ = ()


class Host(CompositeProtocol):
    def __init__(self):
        super().__init__(0, CONFIG)
        self.upcalls = []

    def on_child_output(self, name, effect):
        self.upcalls.append((name, effect))
        return [self.log("upcall", name=name)]


def test_subclassed_effects_route_like_their_bases():
    host = Host()
    call = ServiceCall("svc", "op")
    deliver = Deliver("tag", 1, "v")
    out = host.child_call(
        "kid", [TaggedBroadcast("b"), TaggedSend(3, "s"), call, deliver]
    )
    assert out == [
        Broadcast(Envelope("kid", "b")),
        Send(3, Envelope("kid", "s")),
        call.pushed("kid"),
        host.log("upcall", name="kid"),
    ]
    assert type(out[0]) is Broadcast and type(out[1]) is Send
    assert host.upcalls == [("kid", deliver)]


def test_a_subclassed_envelope_routes_through_a_composite():
    plain, tagged = (Host() for _ in range(2))
    for host in (plain, tagged):
        host.add_child("idb", IdenticalBroadcast(0, CONFIG))
    a = plain.on_message(4, Envelope("idb", IdbInit("v")))
    b = tagged.on_message(4, TaggedEnvelope("idb", IdbInit("v")))
    assert a == b == [Broadcast(Envelope("idb", IdbEcho("v", 4)))]


def test_a_subclassed_envelope_routes_through_the_multiplexer():
    def mux():
        return ShardMultiplexer(0, CONFIG, instance_factory(dex_freq(), 0, CONFIG), shards=2)

    plain, tagged = mux(), mux()
    a = plain.on_message(4, Envelope("s1.2", Envelope("idb", IdbInit("v"))))
    b = tagged.on_message(4, TaggedEnvelope("s1.2", TaggedEnvelope("idb", IdbInit("v"))))
    assert a == b == [Broadcast(Envelope("s1.2", Envelope("idb", IdbEcho("v", 4))))]
    # the guard holds for a subclass too: a non-canonical name is unknown
    (log,) = tagged.on_message(4, TaggedEnvelope("s01.3", DexProposal("v")))
    assert log.event == "unknown-component"


def test_a_subclassed_echo_counts_as_an_echo():
    plain, tagged = IdenticalBroadcast(0, CONFIG), IdenticalBroadcast(0, CONFIG)
    outputs = []
    for sender in range(6):
        a = plain.on_message(sender, IdbEcho("v", 6))
        b = tagged.on_message(sender, TaggedEcho("v", 6))
        assert a == b
        outputs.append(b)
    # the ``n - 2t``-th witness amplifies, the ``n - t``-th accepts
    assert outputs[4] == [Broadcast(IdbEcho("v", 6))]
    assert outputs[5] == [Deliver("id-receive", 6, "v")]
    assert tagged.accepted_origins == plain.accepted_origins == {6}
