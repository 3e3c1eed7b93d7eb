"""Schema-registry drift audit: the wire format as a pinned table.

The golden-frames fixture (``tests/test_codec.py``) pins the *bytes* of
one canonical instance per record; this module pins the *registry* —
every tag's class identity, field order, and blob markings — as a plain
data table.  The two fail differently: a golden-frame mismatch says
"these bytes changed", this table says exactly *which* tag moved, which
field was renamed or reordered, which blob marking was dropped.  Either
way, schema drift fails tier-1 (``pytest -x -q``), the CI ``tests`` job.

On an intentional, append-only schema change: add the new tag rows here,
add canonical instances to ``golden_messages()`` in ``test_codec.py``,
and regenerate the fixture.  Never edit an existing row — that is a wire
break.
"""

import pathlib
import re

import repro
from repro.codec.schema import _SCHEMA_MODULES, check_registry, registered_entries

#: The pinned wire registry: tag -> (qualified class name, field order,
#: blob fields).  APPEND ONLY — editing an existing row is a wire break.
#: Tag blocks: 1-14 wire control plane, 16-25 protocol payloads, 32-38
#: durable records, 48-50 client-facing frontend protocol, 56-60 mesh
#: hub-to-hub protocol.
PINNED_REGISTRY = {
    1: ("repro.net.wire.Hello", ("pid", "codec"), ()),
    2: ("repro.net.wire.Start", (), ()),
    3: ("repro.net.wire.Stop", (), ()),
    4: ("repro.net.wire.MsgSend", ("src", "dst", "payload", "depth"), ("payload",)),
    5: ("repro.net.wire.MsgDeliver", ("sender", "payload", "depth"), ("payload",)),
    6: ("repro.net.wire.MsgDeliverBatch", ("entries",), ()),
    7: ("repro.net.wire.MsgDecide", ("pid", "value", "kind", "step"), ()),
    8: ("repro.net.wire.MsgOutput", ("pid", "tag", "sender", "value"), ()),
    9: ("repro.net.wire.MsgService", ("pid", "call", "depth"), ()),
    10: ("repro.net.wire.MsgLog", ("pid", "event", "data"), ()),
    11: ("repro.runtime.effects.ServiceCall", ("service", "payload", "reply_path"), ()),
    12: ("repro.runtime.effects.Deliver", ("tag", "sender", "value"), ()),
    13: ("repro.net.wire.MsgBroadcast", ("src", "payload", "depth"), ("payload",)),
    14: ("repro.net.wire.MsgDeliverRefs", ("entries",), ()),
    # Rows 16-18 gained their blob marking after they were first pinned.
    # That one edit is readable in both directions: ``TAG_BLOB`` is a value
    # tag the decoder accepts in any field position, so frames written
    # before the marking decode under it (``codec_frames_unframed_values.bin``
    # in ``test_codec.py``) and frames written under it decode before it;
    # and none of the three records is ever persisted.
    16: ("repro.core.dex.DexProposal", ("value",), ("value",)),
    17: ("repro.broadcast.idb.IdbInit", ("value",), ("value",)),
    18: ("repro.broadcast.idb.IdbEcho", ("value", "origin"), ("value",)),
    19: ("repro.underlying.oracle.OracleProposal", ("instance", "value"), ()),
    20: ("repro.underlying.oracle.OracleDecision", ("instance", "value"), ()),
    21: ("repro.baselines.bosco.BoscoVote", ("value",), ()),
    22: ("repro.baselines.brasileiro.BrasileiroValue", ("value",), ()),
    23: ("repro.baselines.crash_onestep.CrashValue", ("value",), ()),
    24: ("repro.baselines.sync_onestep.SyncRound1", ("value",), ()),
    25: ("repro.baselines.sync_onestep.SyncFlood", ("known", "decided"), ()),
    32: ("repro.durable.wal.ProposeRecord", ("shard", "slot", "batch"), ()),
    33: ("repro.durable.wal.DecideRecord", ("shard", "slot", "kind"), ()),
    34: ("repro.durable.wal.ApplyRecord", ("shard", "slot", "batch"), ()),
    35: ("repro.durable.snapshot.ShardSnapshot", ("slots", "applied", "kv", "seq"), ()),
    36: ("repro.durable.recovery.CatchUpRequest", ("round", "frontier"), ()),
    37: ("repro.durable.recovery.CatchUpReply", ("round", "entries", "frontier"), ()),
    38: ("repro.durable.recovery.SlotDecided", ("shard", "slot", "batch"), ()),
    48: ("repro.frontend.socket.ClientSubmit", ("request_id", "key", "op"), ()),
    49: (
        "repro.frontend.socket.ClientReply",
        ("request_id", "shard", "slot", "latency"),
        (),
    ),
    50: ("repro.frontend.socket.ClientRejected", ("request_id", "reason", "shard"), ()),
    56: ("repro.mesh.wire.HubHello", ("hub", "codec"), ()),
    57: ("repro.mesh.wire.MsgRelay", ("src", "dst", "payload", "depth"), ("payload",)),
    58: (
        "repro.mesh.wire.HubStats",
        ("hub", "frames", "bytes", "sent", "delivered", "relayed", "saturated"),
        (),
    ),
    59: ("repro.mesh.wire.HubSaturated", ("hub", "depth", "high_water"), ()),
    60: ("repro.mesh.wire.HubReady", ("hub", "nodes"), ()),
}


class TestRegistryDrift:
    def test_check_registry_reports_no_problems(self):
        """The CLI-facing audit, as a tier-1 test: every registered class
        is a frozen dataclass the decoder can rebuild positionally."""
        assert check_registry() == []

    def test_registry_matches_the_pinned_table(self):
        """Tag assignments, field order and blob markings are wire format:
        any diff against the pinned table is a compatibility break (or a
        new tag missing its pin)."""
        actual = {
            entry.tag: (
                f"{entry.cls.__module__}.{entry.cls.__qualname__}",
                tuple(entry.fields),
                tuple(sorted(entry.blobs)),
            )
            for entry in registered_entries()
        }
        assert actual == PINNED_REGISTRY

    def test_tag_blocks_stay_in_their_lanes(self):
        """The block layout is a convention worth enforcing: control plane
        < 16, protocol payloads < 32, durable records < 48, client block
        48-55, mesh block 56+ — so future tags land in the right
        neighborhood."""
        lanes = {
            "repro.net.wire": range(1, 16),
            "repro.runtime.effects": range(1, 16),
            "repro.durable": range(32, 48),
            "repro.frontend": range(48, 56),
            "repro.mesh": range(56, 64),
        }
        for entry in registered_entries():
            module = entry.cls.__module__
            for prefix, lane in lanes.items():
                if module.startswith(prefix):
                    assert entry.tag in lane, (
                        f"tag {entry.tag} ({entry.cls.__qualname__}) is "
                        f"outside its module's block {lane}"
                    )
                    break

    def test_every_record_module_is_listed_for_ensure_registered(self):
        """Package imports are lazy, so :func:`ensure_registered` is the
        only thing that loads some records: a module applying
        ``@wire_record`` that ``_SCHEMA_MODULES`` leaves out would drop out
        of this table, and out of the unknown-tag fallback, silently."""
        root = pathlib.Path(repro.__file__).parent
        applying = {
            ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
            for path in root.rglob("*.py")
            if re.search(r"^\s*@wire_record\(", path.read_text(), re.MULTILINE)
        }
        assert applying and applying <= set(_SCHEMA_MODULES), sorted(
            applying - set(_SCHEMA_MODULES)
        )
