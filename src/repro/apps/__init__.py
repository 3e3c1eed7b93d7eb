"""Motivating application: atomic commitment on the privileged value
(§3.4).  The §1.1 replicated state machine is the sharded service,
:mod:`repro.shard`."""

from .atomic_commit import ABORT, COMMIT, AtomicCommitCoordinator, CommitReport

__all__ = [
    "AtomicCommitCoordinator",
    "CommitReport",
    "COMMIT",
    "ABORT",
]
