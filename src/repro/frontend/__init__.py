"""Client-facing service frontend: submit API, admission control, load
generation, and the socket-level client protocol.

The production face of the sharded service (ROADMAP's "millions of
users" north star): clients submit keyed operations through bounded
per-shard admission queues (:mod:`~repro.frontend.admission`), get
:class:`~repro.frontend.api.DecidedFuture` handles back
(:mod:`~repro.frontend.api`), and seeded open/closed-loop generators
(:mod:`~repro.frontend.loadgen`) sweep offered load to measure the
saturation curve — client-observed p50/p99 versus throughput, shed rate
past the knee (experiment E22).  :mod:`~repro.frontend.socket` puts the
same path behind a UDS/TCP socket speaking the registry wire format.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".admission": ("POLICIES", "AdmissionQueue", "Rejected", "ShedStats"),
        ".api": (
            "CLIENT",
            "DecidedFuture",
            "Frontend",
            "FrontendReport",
            "SubmitRejected",
        ),
        ".loadgen": (
            "KeyPicker",
            "LoadGenerator",
            "digest_checksum",
            "poisson",
            "saturation_sweep",
        ),
        ".socket": (
            "ClientSubmit",
            "ClientReply",
            "ClientRejected",
            "FrontendServer",
            "SocketClient",
        ),
    },
)
