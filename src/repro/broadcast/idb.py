"""Identical Broadcast — algorithm IDB (paper appendix, Figure 3).

Identical Broadcast guarantees that *all* correct processes deliver the
same message per sender, even when the sender is Byzantine (Figure 2):

* **Termination** — if a correct process Id-Sends ``m``, every correct
  process Id-Receives ``m``;
* **Agreement** — two correct processes never Id-Receive different messages
  for the same sender;
* **Validity** — for any sender, a correct process Id-Receives at most once,
  and only a message the (correct) sender actually Id-Sent.

The implementation is witness-based and needs ``n > 4t`` (Theorem 4):

1. ``Id-send(m)``: P-send ``(init, m)`` to all.
2. On the *first* ``(init, m')`` from ``p_j``: P-send ``(echo, m', j)``.
3. On ``(echo, m', j)``: with ``n − 2t`` matching copies from distinct
   processes, P-send the echo too (amplification, at most one echo per
   origin ever); with ``n − t`` copies, Id-Receive ``m'`` (once per origin).

One IDB communication step costs exactly two plain steps (init + echo),
which is why DEX's IDB-based path is a *two*-step decision scheme.
Deliveries surface as ``Deliver(tag="id-receive", sender=origin, value=m)``
upcalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ResilienceError
from ..runtime.effects import Broadcast, Deliver, Effect
from ..runtime.protocol import Protocol
from ..types import ProcessId, SystemConfig, Value, slot_init
from ..codec.schema import wire_record

DELIVER_TAG = "id-receive"


@wire_record(tag=17, blobs=("value",))
@slot_init
@dataclass(frozen=True, slots=True)
class IdbInit:
    """``(init, m)`` — the sender's own broadcast of its message.

    ``value`` is blob-framed (see :class:`~repro.core.dex.DexProposal`)."""

    value: Value


@wire_record(tag=18, blobs=("value",))
@slot_init
@dataclass(frozen=True, slots=True)
class IdbEcho:
    """``(echo, m', j)`` — a witness statement that ``p_j`` sent ``m'``.

    ``value`` is blob-framed (see :class:`~repro.core.dex.DexProposal`)."""

    value: Value
    origin: ProcessId


class IdenticalBroadcast(Protocol):
    """One process's endpoint of the Identical Broadcast system.

    A single instance handles broadcasts from *every* origin (the origin id
    travels inside the echo messages), so DEX embeds exactly one.

    Args:
        process_id: hosting process.
        config: must satisfy ``n > 4t``.
        initial_value: when set, :meth:`on_start` Id-Sends it — convenient
            for running IDB standalone; composites call :meth:`id_send`
            themselves and leave this unset.
    """

    #: the two witness thresholds are fixed by ``config``: identity, like
    #: ``process_id``, never part of a snapshot.
    _SNAPSHOT_EXCLUDE = Protocol._SNAPSHOT_EXCLUDE | {"_amplify_at", "_accept_at"}

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        initial_value: Value | None = None,
    ) -> None:
        if not config.satisfies(4):
            raise ResilienceError("IdenticalBroadcast", config.n, config.t, "n > 4t")
        super().__init__(process_id, config)
        # computed once: ``_on_echo`` compares against them on every echo
        self._amplify_at = config.n - 2 * config.t
        self._accept_at = config.n - config.t
        self.initial_value = initial_value
        self._echoed: set[ProcessId] = set()
        self._accepted: set[ProcessId] = set()
        # witnesses per origin not yet accepted: ``{origin: {value: senders}}``
        self._witnesses: dict[ProcessId, dict[Value, set[ProcessId]]] = {}

    # -- input action -------------------------------------------------------------

    def id_send(self, value: Value) -> list[Effect]:
        """Id-Send ``value`` to all processes (one init broadcast)."""
        return [Broadcast(IdbInit(value))]

    def on_start(self) -> list[Effect]:
        if self.initial_value is None:
            return []
        return self.id_send(self.initial_value)

    # -- message handlers -----------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        # exact types first: echoes are ``n`` of every ``n + 1`` arrivals
        kind = type(payload)
        if kind is IdbEcho:
            return self._on_echo(sender, payload)
        if kind is IdbInit or isinstance(payload, IdbInit):
            return self._on_init(sender, payload)
        if isinstance(payload, IdbEcho):
            return self._on_echo(sender, payload)
        return [self.log("idb-ignored", sender=sender, payload=repr(payload))]

    def _on_init(self, sender: ProcessId, message: IdbInit) -> list[Effect]:
        if sender in self._echoed:  # first-echo(j) is false
            return []
        self._echoed.add(sender)
        return [Broadcast(IdbEcho(message.value, sender))]

    def _on_echo(self, sender: ProcessId, message: IdbEcho) -> list[Effect]:
        origin = message.origin
        if origin in self._accepted:
            # finished: ``n - t`` witnesses imply the ``n - 2t`` echo went
            # out in the same call or an earlier one
            return []
        book = self._witnesses.get(origin)
        if book is None:
            if origin not in self.config.processes:
                # never ``n - 2t`` witnesses with ``<= t`` liars, and the
                # one book no accept would ever free
                return []
            book = self._witnesses[origin] = {}
        witnesses = book.setdefault(message.value, set())
        witnesses.add(sender)
        num = len(witnesses)
        effects: list[Effect] = []
        if num >= self._amplify_at and origin not in self._echoed:
            self._echoed.add(origin)
            effects.append(Broadcast(IdbEcho(message.value, origin)))
        if num >= self._accept_at:
            self._accepted.add(origin)
            del self._witnesses[origin]  # equivocated values go with it
            effects.append(Deliver(DELIVER_TAG, origin, message.value))
        return effects

    # -- observability ----------------------------------------------------------------

    @property
    def accepted_origins(self) -> frozenset[ProcessId]:
        """Origins whose broadcast this process has Id-Received."""
        return frozenset(self._accepted)

    @property
    def inert(self) -> bool:
        """True once this process has echoed for every origin.

        From then on :meth:`on_message` sends nothing: an ``init`` or an
        amplification finds its origin in ``_echoed``, so the one thing left
        to happen is the Id-Receive of an origin not yet accepted.
        """
        return len(self._echoed) == self.n
