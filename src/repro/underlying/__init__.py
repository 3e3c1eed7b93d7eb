"""Underlying consensus: the paper's §2.2 abstraction and a real stack.

Two interchangeable implementations of
:class:`~repro.underlying.base.UnderlyingConsensus`:

* **oracle** — the abstraction itself as a trusted harness service;
* **multivalued** — Bracha RBC + common-coin binary agreement + ACS
  (``n > 3t``), fully message-passing with zero trusted components.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".base": ("FallbackConsensus", "UcFactory", "UnderlyingConsensus", "UC_DECIDE_TAG"),
        ".oracle": (
            "OracleService",
            "OracleConsensus",
            "OracleProposal",
            "OracleDecision",
            "SERVICE_NAME as ORACLE_SERVICE_NAME",
        ),
        ".coin": ("CommonCoin",),
        ".aba": (
            "BinaryAgreement",
            "AbaEst",
            "AbaAux",
            "AbaDecided",
            "DELIVER_TAG as ABA_DELIVER_TAG",
        ),
        ".acs": ("CommonSubset", "DELIVER_TAG as ACS_DELIVER_TAG"),
        ".multivalued": ("MultivaluedConsensus", "extract_decision"),
    },
)
