"""The sans-IO protocol interface every algorithm in this library implements.

A :class:`Protocol` is a deterministic state machine: the runtime calls
:meth:`Protocol.on_start` once and :meth:`Protocol.on_message` for every
delivered payload; both return lists of :class:`~repro.runtime.effects.Effect`.

Handlers must never raise on malformed input — Byzantine processes may send
arbitrary payloads, and robust protocols treat garbage as silence.  The
:func:`guarded` wrapper (the runtimes call every handler through it)
enforces this by converting unexpected exceptions into a dropped
message plus a trace record, so a malicious payload can crash neither the
process nor the experiment.
"""

from __future__ import annotations

import abc
import copy
import pickle
from typing import Any

from ..types import ProcessId, SystemConfig
from .effects import Effect, Log


class Protocol(abc.ABC):
    """Base class for sans-IO protocol state machines.

    Args:
        process_id: the identifier of the process hosting this instance.
        config: the static ``(n, t)`` system parameters.
    """

    #: True once no arrival can make this protocol send, deliver or decide
    #: again: whoever hosts it may drop it together with its late traffic.
    #: A protocol that never reaches such a point, or does not say, is kept.
    inert: bool = False

    def __init__(self, process_id: ProcessId, config: SystemConfig) -> None:
        self.process_id = process_id
        self.config = config

    # -- runtime-facing interface ----------------------------------------------

    def on_start(self) -> list[Effect]:
        """Called exactly once, before any message delivery."""
        return []

    @abc.abstractmethod
    def on_message(self, sender: ProcessId, payload: Any) -> list[Effect]:
        """Handle one delivered payload from ``sender``.

        ``sender`` is the authenticated process id: the runtime models
        reliable authenticated point-to-point links (paper §2.1), so a
        Byzantine process cannot forge another sender's identity — only the
        payload is untrusted.
        """

    # -- state capture (model checking, time travel) -----------------------------

    #: Attributes excluded from the default snapshot: immutable identity that
    #: :meth:`restore` must never clobber.
    _SNAPSHOT_EXCLUDE: frozenset[str] = frozenset({"process_id", "config"})

    #: Per-class memo: can this protocol's state be pickled?  ``None`` until
    #: the first snapshot attempt decides.
    _snapshot_picklable: bool | None = None

    def snapshot(self) -> Any:
        """Capture this protocol's mutable state as an opaque token.

        The default captures every instance attribute except the identity
        fields, which covers every protocol in this library (their state is
        plain attributes holding containers and scalars).  Pickling is
        several times faster than :func:`copy.deepcopy` and branching
        explorers snapshot at nearly every state, so the token is a pickle
        blob whenever the state supports it; protocols whose state holds
        unpicklables (e.g. behavior closures) fall back to deep copies, the
        choice memoized per class.  Protocols with large but
        simply-structured state may override ``snapshot``/:meth:`restore`
        with a cheaper encoding — the only contract is that
        ``restore(snapshot())`` is a behavioral no-op and that a token stays
        valid across multiple restores.
        """
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k not in self._SNAPSHOT_EXCLUDE
        }
        cls = type(self)
        if cls._snapshot_picklable is not False:
            try:
                blob = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
            except Exception:
                cls._snapshot_picklable = False
            else:
                cls._snapshot_picklable = True
                return blob
        return copy.deepcopy(state)

    def restore(self, token: Any) -> None:
        """Reset mutable state to a :meth:`snapshot` token.

        The token is decoded (or copied) again on the way in, so one token
        supports any number of restores (branching explorers restore the
        same ancestor snapshot down many paths).
        """
        state = (
            pickle.loads(token)
            if isinstance(token, bytes)
            else copy.deepcopy(token)
        )
        for k in list(self.__dict__):
            if k not in self._SNAPSHOT_EXCLUDE:
                del self.__dict__[k]
        self.__dict__.update(state)

    # -- shared helpers ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return self.config.n

    @property
    def t(self) -> int:
        """Failure upper bound known to every process."""
        return self.config.t

    @property
    def quorum(self) -> int:
        """The ubiquitous ``n - t`` reception threshold."""
        return self.config.quorum

    def log(self, event: str, **data: Any) -> Log:
        """Build a trace record tagged with this process id."""
        return Log(event, {"pid": self.process_id, **data})


def guarded(protocol: Protocol, sender: ProcessId, payload: Any) -> list[Effect]:
    """Invoke ``protocol.on_message`` treating handler exceptions as garbage.

    Byzantine payloads that trip a type error inside a handler are logged
    and dropped rather than propagated: a faulty process must not be able to
    crash a correct one.  Runtimes call handlers through this function.
    """
    try:
        return protocol.on_message(sender, payload)
    except Exception as exc:  # noqa: BLE001 - byzantine input is arbitrary
        return [
            Log(
                "malformed-message-dropped",
                {
                    "pid": protocol.process_id,
                    "sender": sender,
                    "payload": repr(payload),
                    "error": repr(exc),
                },
            )
        ]
