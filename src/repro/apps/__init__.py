"""Motivating applications: replicated state machine (§1.1) and atomic
commitment on the privileged value (§3.4)."""

from .atomic_commit import ABORT, COMMIT, AtomicCommitCoordinator, CommitReport
from .pipeline import (
    SLOT_DECIDED_TAG,
    PipelinedReplica,
    run_pipelined,
)
from .rsm import (
    Command,
    KeyValueStore,
    ReplicatedStateMachine,
    RsmReport,
    command_stream,
)

__all__ = [
    "ReplicatedStateMachine",
    "RsmReport",
    "KeyValueStore",
    "Command",
    "command_stream",
    "AtomicCommitCoordinator",
    "CommitReport",
    "COMMIT",
    "ABORT",
    "PipelinedReplica",
    "run_pipelined",
    "SLOT_DECIDED_TAG",
]
