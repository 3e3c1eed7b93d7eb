"""The schema registry: which record shapes travel struct-packed.

The binary codec (:mod:`repro.codec.binary`) can only struct-pack a shape
it knows about.  This module is the single registry of those shapes: every
high-volume record class — wire control messages, DEX/IDB protocol
messages, WAL records, catch-up messages — registers itself here with a
stable one-byte tag via the :func:`wire_record` decorator.  The tag, the
field order, and the blob markings together *are* the wire format; golden
frames in ``tests/data/codec_frames.bin`` pin them byte-for-byte.

Deliberately a leaf module: it imports nothing from the rest of the
library, so any message-defining module can decorate its classes without
an import cycle.  The registry fills as modules load; decoders call
:func:`ensure_registered` once to force-load every participating module
before trusting a tag lookup.

The shard envelope-tag grammar (``s<shard>.<slot>``) also lives here —
it is part of the wire format (the binary codec packs matching envelope
components as two varints instead of a string), and
:mod:`repro.shard.router` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Iterator, Mapping, TypeVar

__all__ = [
    "SchemaEntry",
    "wire_record",
    "register",
    "entry_for_class",
    "entry_for_tag",
    "registered_entries",
    "ensure_registered",
    "COMPONENT_TABLE",
    "INSTANCE_PREFIX",
    "instance_name",
    "parse_instance",
]

_T = TypeVar("_T", bound=type)

#: One field's declared layout: ``(encoder, decoder)`` as the binary codec
#: calls them (``encoder(value, buf)``, ``decoder(data, pos, codec)``).
FieldCodec = tuple[Callable[..., Any], Callable[..., Any]]


@dataclass(frozen=True, slots=True)
class SchemaEntry:
    """One registered record shape.

    Attributes:
        tag: stable wire tag (one varint byte; changing it is a wire break).
        cls: the dataclass.
        fields: field names in wire order (the dataclass field order).
        blobs: names of fields carried as length-prefixed blobs, so a relay
            (the hub) can forward them without decoding — see
            :class:`repro.codec.binary.Opaque` — and a replica's decoder can
            share one decoded value among every message that quotes the
            same bytes.  ``TAG_BLOB`` is a value tag the decoder accepts in
            any field position, so marking (or unmarking) a field changes
            what is written, never what can be read.
        layouts: per-field codec pairs for fields whose shape the record
            declares (``MsgDeliverBatch.entries`` is a tuple of ``(sender,
            blob payload, depth)``).  A layout is a faster way to the bytes
            the generic encoding of that field would produce, never a
            different format — so it is no part of the wire format, of
            equality, or of the pinned registry table.
    """

    tag: int
    cls: type
    fields: tuple[str, ...]
    blobs: frozenset[str]
    layouts: Mapping[str, FieldCodec] = field(default_factory=dict, compare=False)


#: tag -> entry and class -> entry; filled by :func:`register`.
_BY_TAG: dict[int, SchemaEntry] = {}
_BY_CLASS: dict[type, SchemaEntry] = {}

#: Modules whose import populates the registry.  Decoding a tag requires
#: every participating module to be loaded; :func:`ensure_registered`
#: imports these once.
_SCHEMA_MODULES = (
    "repro.runtime.effects",
    "repro.net.wire",
    "repro.core.dex",
    "repro.broadcast.idb",
    "repro.underlying.oracle",
    "repro.baselines.bosco",
    "repro.baselines.brasileiro",
    "repro.baselines.crash_onestep",
    "repro.baselines.sync_onestep",
    "repro.durable.wal",
    "repro.durable.snapshot",
    "repro.durable.recovery",
    "repro.frontend.socket",
    "repro.mesh.wire",
)

_registered_all = False


def register(
    tag: int,
    cls: type,
    blobs: tuple[str, ...] = (),
    layouts: Mapping[str, FieldCodec] | None = None,
) -> SchemaEntry:
    """Register ``cls`` under ``tag``.  Idempotent for the same class."""
    if not 0 < tag < 128:
        raise ValueError(f"schema tag must fit one varint byte, got {tag}")
    existing = _BY_TAG.get(tag)
    if existing is not None:
        if existing.cls.__module__ == cls.__module__ and existing.cls.__qualname__ == cls.__qualname__:
            return existing
        raise ValueError(f"schema tag {tag} already taken by {existing.cls.__qualname__}")
    names = tuple(f.name for f in dataclass_fields(cls))
    layouts = dict(layouts or {})
    unknown = (set(blobs) | set(layouts)) - set(names)
    if unknown:
        raise ValueError(f"fields {sorted(unknown)} not on {cls.__qualname__}")
    if set(blobs) & set(layouts):
        raise ValueError("a field is blob-framed or has a declared layout, not both")
    entry = SchemaEntry(
        tag=tag, cls=cls, fields=names, blobs=frozenset(blobs), layouts=layouts
    )
    _BY_TAG[tag] = entry
    _BY_CLASS[cls] = entry
    return entry


def wire_record(
    tag: int,
    blobs: tuple[str, ...] = (),
    layouts: Mapping[str, FieldCodec] | None = None,
) -> Callable[[_T], _T]:
    """Class decorator registering a dataclass in the wire schema."""

    def apply(cls: _T) -> _T:
        register(tag, cls, blobs, layouts)
        return cls

    return apply


def entry_for_class(cls: type) -> SchemaEntry | None:
    return _BY_CLASS.get(cls)


def entry_for_tag(tag: int) -> SchemaEntry | None:
    return _BY_TAG.get(tag)


def registered_entries() -> Iterator[SchemaEntry]:
    """All entries, in tag order (forces a full registry load first)."""
    ensure_registered()
    for tag in sorted(_BY_TAG):
        yield _BY_TAG[tag]


def ensure_registered() -> dict[int, SchemaEntry]:
    """Import every schema-bearing module; return the tag table."""
    global _registered_all
    if not _registered_all:
        import importlib

        for name in _SCHEMA_MODULES:
            importlib.import_module(name)
        _registered_all = True
    return _BY_TAG


# -- envelope component grammar ------------------------------------------------------
#
# Composite routing wraps payloads in Envelope(component, payload) chains.
# Component strings come from a tiny vocabulary: the static component names
# below, plus the sharded instance grammar "s<shard>.<slot>".  The binary
# codec packs table entries as one byte and instance names as two varints.

#: Interned component names, in wire order.  APPEND ONLY — the position is
#: the wire encoding.
COMPONENT_TABLE: tuple[str, ...] = ("mux", "idb", "uc", "dex", "bosco", "brasileiro", "crash")

INSTANCE_PREFIX = "s"

#: Instance names remembered per direction (name -> key and key -> name),
#: oldest evicted first.  One name is formatted by the decoder and parsed
#: by the shard node, the multiplexer, shard attribution and the encoder,
#: for every message, but the live set is only the open instances (shards x
#: the few slots in flight) plus the static components that parse to
#: ``None``: a 4-shard, 256-command ``sim`` run makes 146 479 lookups of 67
#: distinct names and misses 69 of them at 32 entries (4 594 at 8, 67 at
#: 4 096), so 256 leaves room for eight times the shards or pipeline depth.
INSTANCE_MEMO_ENTRIES = 256

#: Longer names are parsed afresh every time.  ``s<shard>.<slot>`` with two
#: ten-digit numbers is 22 characters; the bound caps one table at 6 KiB of
#: key text however long a hostile component string is.
INSTANCE_MEMO_MAX_CHARS = 24

_PARSED: dict[str, tuple[int, int] | None] = {}
_NAMED: dict[tuple[int, int], str] = {}


def _remember(memo: dict, key, value) -> None:
    if len(memo) >= INSTANCE_MEMO_ENTRIES:
        del memo[next(iter(memo))]  # oldest first: dicts keep insertion order
    memo[key] = value


def instance_name(shard: int, slot: int) -> str:
    """The envelope component addressing one ``(shard, slot)`` instance."""
    key = (shard, slot)
    try:
        return _NAMED[key]
    except KeyError:
        pass
    name = f"{INSTANCE_PREFIX}{shard}.{slot}"
    if len(name) <= INSTANCE_MEMO_MAX_CHARS:
        _remember(_NAMED, key, name)
    return name


def parse_instance(component: str) -> tuple[int, int] | None:
    """Invert :func:`instance_name`; ``None`` for foreign components.

    Memoised (both answers, bounded — see :data:`INSTANCE_MEMO_ENTRIES`): a
    miss costs :func:`_parse_instance`, and a flood of distinct hostile
    names evicts entries but never grows the table.
    """
    try:
        return _PARSED[component]
    except KeyError:
        pass
    key = _parse_instance(component)
    if len(component) <= INSTANCE_MEMO_MAX_CHARS:
        _remember(_PARSED, component, key)
    return key


def _parse_instance(component: str) -> tuple[int, int] | None:
    if not component.startswith(INSTANCE_PREFIX):
        return None
    body = component[len(INSTANCE_PREFIX) :]
    shard_text, dot, slot_text = body.partition(".")
    # isdecimal, not isdigit: "\u00b2".isdigit() holds but int() refuses it.
    if not dot or not shard_text.isdecimal() or not slot_text.isdecimal():
        return None
    return int(shard_text), int(slot_text)


def check_registry() -> list[str]:
    """Sanity-check the loaded registry; returns human-readable problems.

    Used by tests: every registered class must be a frozen dataclass whose
    constructor accepts its fields positionally (the decoder builds
    instances that way).
    """
    problems: list[str] = []
    ensure_registered()
    for entry in registered_entries():
        params = getattr(entry.cls, "__dataclass_params__", None)
        if params is None:
            problems.append(f"{entry.cls.__qualname__} is not a dataclass")
        elif not params.frozen:
            problems.append(f"{entry.cls.__qualname__} is not frozen")
    return problems
