"""Sans-IO protocol runtime: effects, protocol interface, composition and
trusted services.

Protocols written against this package run unchanged on every engine:
the deterministic simulator (:mod:`repro.sim`), the model checker
(:mod:`repro.mc`) and real processes over sockets (:mod:`repro.net`).
"""

from .composite import CompositeProtocol, Envelope
from .effects import (
    SERVICE_SENDER,
    Broadcast,
    Decide,
    Deliver,
    Effect,
    Log,
    Send,
    ServiceCall,
)
from .protocol import Protocol, guarded
from .services import Service, ServiceReply

__all__ = [
    "CompositeProtocol",
    "Envelope",
    "SERVICE_SENDER",
    "Broadcast",
    "Decide",
    "Deliver",
    "Effect",
    "Log",
    "Send",
    "ServiceCall",
    "Protocol",
    "guarded",
    "Service",
    "ServiceReply",
]
