"""Broadcast primitives: Identical Broadcast (paper appendix) and Bracha's
reliable broadcast (substrate of the concrete underlying consensus)."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".idb": (
            "IdenticalBroadcast",
            "IdbInit",
            "IdbEcho",
            "DELIVER_TAG as IDB_DELIVER_TAG",
        ),
        ".bracha": (
            "BrachaBroadcast",
            "RbcInit",
            "RbcEcho",
            "RbcReady",
            "DELIVER_TAG as RBC_DELIVER_TAG",
        ),
    },
)
