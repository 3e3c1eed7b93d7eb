"""The legacy codec behind the shared ``encode_into``/``decode`` interface.

An escape hatch, not the data plane: :class:`PickleCodec` round-trips
anything, but every frame pays C-pickle class-path overhead and nothing can
be relayed without a full decode — and it is only safe between processes
*we forked on this machine*.

It exposes the same three methods as :class:`repro.codec.binary.BinaryCodec`
so frame writers (``net/wire.py``, ``durable/wal.py``) never branch on the
codec kind.
"""

from __future__ import annotations

import pickle
from typing import Any

__all__ = ["PickleCodec"]


class PickleCodec:
    """Arbitrary-object codec via :mod:`pickle` (highest protocol)."""

    id = 1
    name = "pickle"

    def encode_into(self, obj: Any, buf: bytearray) -> None:
        buf += pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)

    def encode(self, obj: Any) -> bytes:
        return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        return pickle.loads(data)
